//! The one byte encoding of the kernel IR.
//!
//! [`encode_kernel`] walks a [`Kernel`] once and writes little-endian,
//! explicitly tagged bytes to a [`Sink`]; [`decode_kernel`] reads them back
//! through a bounds-checked [`Reader`]. The one sink is a `Vec<u8>`: the
//! serve layer's on-disk artifacts, and the buffer the in-memory kernel
//! fingerprint of `crate::flatcache` hashes (which is therefore the hash of
//! exactly these bytes). Both directions of every type come from one
//! declaration — a tag and a field list per variant — so they cannot drift
//! apart and a new variant is one line.
//!
//! * **Exactness**: `f64` travels as its bit pattern, so a decoded kernel
//!   is bit-identical to the encoded one.
//! * **Corruption tolerance**: every read is bounds-checked and every tag
//!   validated; any mismatch is a [`DecodeError`], never a panic.

use super::*;

/// Where encoded bytes go. Only [`Sink::put`] is required; the typed
/// writers fix the layout (little-endian, `usize` as `u64`, `f64` as bits,
/// strings `u32`-length-prefixed).
// The typed writers are named after the type they move; documenting each
// would just restate the name.
#[allow(missing_docs)]
pub trait Sink {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline] // called per field from other crates; encode is 1.6x slower without
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Decode failure: the byte stream is truncated, mis-tagged, or otherwise
/// not a valid encoding. Deliberately carries only a static description —
/// decode failures are expected (stale/corrupt cache entries) and handled
/// by recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode failed: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type DResult<T> = Result<T, DecodeError>;

/// Bounds-checked little-endian reader, the inverse of [`Sink`]'s typed
/// writers.
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
    /// Open [`Reader::seq`] nesting levels.
    depth: usize,
}

#[allow(missing_docs)]
impl<'a> Reader<'a> {
    pub fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, pos: 0, depth: 0 }
    }

    /// True if every byte has been consumed (decoders require this so
    /// trailing garbage is a decode failure, not silently ignored data).
    pub fn exhausted(&self) -> bool {
        self.pos == self.b.len()
    }

    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(DecodeError("length overflow"))?;
        if end > self.b.len() {
            return Err(DecodeError("truncated"));
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> DResult<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub fn u8(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> DResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("bad bool")),
        }
    }

    pub fn u16(&mut self) -> DResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn usize(&mut self) -> DResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError("usize overflow"))
    }

    /// A usize that also cannot plausibly exceed the remaining payload
    /// (guards `Vec::with_capacity` against allocating from corrupt
    /// lengths before the per-element reads would fail).
    fn len(&mut self) -> DResult<usize> {
        let n = self.usize()?;
        if n > self.b.len().saturating_sub(self.pos) {
            return Err(DecodeError("length exceeds payload"));
        }
        Ok(n)
    }

    pub fn f64(&mut self) -> DResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> DResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("bad utf8"))
    }

    /// A length-prefixed sequence of `item`s.
    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> DResult<T>) -> DResult<Vec<T>> {
        // Sequences nest a few levels deep (node trees, bank lists); a
        // corrupt length field must not be able to recurse the decoder off
        // the stack.
        if self.depth >= 64 {
            return Err(DecodeError("nesting too deep"));
        }
        let n = self.len()?;
        self.depth += 1;
        let out = (|| {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(item(self)?);
            }
            Ok(out)
        })();
        self.depth -= 1;
        out
    }
}

/// A type with one byte layout, written and read field by field.
///
/// `enc` is generic over the sink, so it is compiled (and inlined) where it
/// is used. `dec` is not, hence the `#[inline]` on the non-generic impls:
/// the variant decoders call one per field, and without the hint a warm
/// artifact load decodes a quarter slower.
trait Wire: Sized {
    fn enc(&self, s: &mut impl Sink);
    fn dec(r: &mut Reader) -> DResult<Self>;
}

/// Scalars go through the [`Sink`] writer / [`Reader`] method named after
/// their type.
macro_rules! wire_scalar {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            fn enc(&self, s: &mut impl Sink) {
                s.$t(*self);
            }
            #[inline]
            fn dec(r: &mut Reader) -> DResult<Self> {
                r.$t()
            }
        }
    )+};
}
wire_scalar!(u8, u16, u32, u64, usize, bool, f64);

impl Wire for String {
    fn enc(&self, s: &mut impl Sink) {
        s.str(self);
    }
    fn dec(r: &mut Reader) -> DResult<Self> {
        r.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, s: &mut impl Sink) {
        match self {
            None => s.u8(0),
            Some(v) => {
                s.u8(1);
                v.enc(s);
            }
        }
    }
    fn dec(r: &mut Reader) -> DResult<Self> {
        Ok(match r.u8()? {
            0 => None,
            1 => Some(T::dec(r)?),
            _ => return Err(DecodeError("bad Option tag")),
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, s: &mut impl Sink) {
        s.usize(self.len());
        for v in self {
            v.enc(s);
        }
    }
    fn dec(r: &mut Reader) -> DResult<Self> {
        r.seq(T::dec)
    }
}

impl Wire for GlobalId {
    fn enc(&self, s: &mut impl Sink) {
        self.0.enc(s);
    }
    #[inline]
    fn dec(r: &mut Reader) -> DResult<Self> {
        Ok(GlobalId(Wire::dec(r)?))
    }
}

/// Operators travel as their discriminant byte and come back through the
/// enum's `ALL` list.
macro_rules! wire_op {
    ($($name:ident: $bad:literal),+) => {$(
        impl Wire for $name {
            fn enc(&self, s: &mut impl Sink) {
                s.u8(*self as u8);
            }
            #[inline]
            fn dec(r: &mut Reader) -> DResult<Self> {
                $name::ALL.get(usize::from(r.u8()?)).copied().ok_or(DecodeError($bad))
            }
        }
    )+};
}
wire_op!(UnOp: "bad UnOp", BinOp: "bad BinOp", Cmp: "bad Cmp");

/// A struct is its fields in the listed order. The struct literal in `dec`
/// makes a missing field a compile error.
macro_rules! wire_struct {
    ($name:ident { $($f:ident),+ $(,)? }) => {
        impl Wire for $name {
            fn enc(&self, s: &mut impl Sink) {
                $(self.$f.enc(s);)+
            }
            #[inline]
            fn dec(r: &mut Reader) -> DResult<Self> {
                Ok($name { $($f: Wire::dec(r)?),+ })
            }
        }
    };
}

macro_rules! dec_field {
    ($r:ident, $field:ident) => {
        Wire::dec($r)?
    };
}

/// An enum is a tag byte, then the variant's fields in the listed order:
/// one line per variant declares both directions. `enc`'s `match` has no
/// catch-all, so a variant missing from the table is a compile error.
macro_rules! wire_enum {
    ($name:ident, $bad:literal {
        $($tag:literal => $v:ident $(( $($t:ident),+ ))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl Wire for $name {
            fn enc(&self, s: &mut impl Sink) {
                match self {$(
                    $name::$v $(( $($t),+ ))? $({ $($f),+ })? => {
                        s.u8($tag);
                        $($($t.enc(s);)+)?
                        $($($f.enc(s);)+)?
                    }
                )+}
            }
            #[inline]
            fn dec(r: &mut Reader) -> DResult<Self> {
                Ok(match r.u8()? {
                    $($tag => $name::$v $(( $(dec_field!(r, $t)),+ ))? $({ $($f: Wire::dec(r)?),+ })?,)+
                    _ => return Err(DecodeError($bad)),
                })
            }
        }
    };
}

wire_enum!(Op, "bad Op tag" { 0 => Reg(r), 1 => Imm(v) });
wire_enum!(IdxOp, "bad IdxOp tag" { 0 => Imm(v), 1 => Reg(r) });
wire_enum!(PointRef, "bad PointRef tag" { 0 => Lane, 1 => Thread, 2 => Reg(r) });
wire_struct!(GAddr { array, row, point });
wire_struct!(SAddr { base, imm, lane_stride });

wire_enum!(IdxInstr, "bad IdxInstr tag" {
    0 => Mov { dst, src },
    1 => Add { dst, a, b },
    2 => Mul { dst, a, b },
    3 => LaneId { dst },
    4 => WarpId { dst },
    5 => LdConst { dst, bank, idx },
    6 => Shfl { dst, src, lane },
    7 => PipeOff { dst, k, stride },
});

wire_enum!(Instr, "bad Instr tag" {
    0 => Un { op, dst, a },
    1 => Bin { op, dst, a, b },
    2 => DFma { dst, a, b, c, const_c },
    3 => DSel { dst, pred, a, b },
    4 => DCmp { dst, cmp, a, b },
    5 => LdGlobal { dst, addr, ldg },
    6 => StGlobal { src, addr },
    7 => LdShared { dst, addr },
    8 => StShared { src, addr, lane_pred },
    9 => LdConst { dst, bank, idx },
    10 => LdLocal { dst, slot },
    11 => StLocal { src, slot },
    12 => Shfl { dst, src, lane },
    13 => Idx(ii),
    14 => BarArrive { bar, warps },
    15 => BarSync { bar, warps },
    16 => BarArriveStage { base, k, warps },
    17 => BarSyncStage { base, k, warps },
    18 => CpAsync { addr, array, row, point },
});

wire_enum!(Node, "bad Node tag" {
    0 => Op(i),
    1 => WarpIf { mask, body },
    2 => WarpSwitch { case_of_warp, cases },
    3 => Loop { count, body },
    4 => PointLoop { iters, body },
});

wire_struct!(ArrayDecl { name, rows, output });
wire_struct!(Kernel {
    name,
    warps_per_cta,
    points_per_cta,
    dregs_per_thread,
    iregs_per_thread,
    shared_words,
    local_words_per_thread,
    barriers_used,
    spilled_bytes_per_thread,
    exp_const_from_registers,
    const_banks,
    iconst_banks,
    global_arrays,
    body,
});

/// Encode a complete [`Kernel`] (every field, `f64`s by bit pattern).
pub fn encode_kernel(k: &Kernel, s: &mut impl Sink) {
    k.enc(s);
}

/// Decode a complete [`Kernel`]. The caller decides whether trailing bytes
/// are an error ([`Reader::exhausted`]).
pub fn decode_kernel(r: &mut Reader) -> DResult<Kernel> {
    Kernel::dec(r)
}

#[cfg(test)]
mod tests {
    use super::super::tests::samples;
    use super::*;

    fn kernel(body: Vec<Node>) -> Kernel {
        Kernel {
            name: "codec".into(),
            body,
            warps_per_cta: 4,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 8,
            shared_words: 128,
            local_words_per_thread: 4,
            const_banks: vec![vec![1.5, f64::INFINITY, -0.0], vec![]],
            iconst_banks: vec![vec![7, 0, u32::MAX]],
            barriers_used: 8,
            global_arrays: vec![
                ArrayDecl { name: "in".into(), rows: 5, output: false },
                ArrayDecl { name: "out".into(), rows: 2, output: true },
            ],
            spilled_bytes_per_thread: 16,
            exp_const_from_registers: true,
        }
    }

    /// Every sample on its own, plus every [`Node`] shape around one.
    fn bodies() -> Vec<Vec<Node>> {
        let op = || Node::Op(Instr::mov(0, Op::Imm(2.5)));
        let mut v: Vec<Vec<Node>> = samples().into_iter().map(|(i, _)| vec![Node::Op(i)]).collect();
        v.push(vec![]);
        v.push(vec![Node::WarpIf { mask: 0b1010, body: vec![op()] }]);
        v.push(vec![Node::WarpSwitch {
            case_of_warp: vec![0, 1, 0, 1],
            cases: vec![vec![op()], vec![Node::PointLoop { iters: 4, body: vec![op(), op()] }]],
        }]);
        v.push(vec![Node::Loop { count: 3, body: vec![op()] }]);
        v.push(vec![Node::PointLoop { iters: 3, body: vec![op()] }]);
        v
    }

    fn encoded(k: &Kernel) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_kernel(k, &mut bytes);
        bytes
    }

    #[test]
    fn every_shape_roundtrips() {
        for body in bodies() {
            let k = kernel(body);
            let bytes = encoded(&k);
            let mut r = Reader::new(&bytes);
            let back = decode_kernel(&mut r).expect("decodes");
            assert!(r.exhausted());
            assert_eq!(back.body, k.body);
            // Debug covers every other field (and prints f64s exactly
            // enough to tell `-0.0` and `inf` apart).
            assert_eq!(format!("{back:?}"), format!("{k:?}"));
        }
    }

    #[test]
    fn every_shape_has_its_own_fingerprint() {
        let prints: Vec<_> =
            bodies().into_iter().map(|b| crate::flatcache::fingerprint(&kernel(b))).collect();
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[..i] {
                assert!(a.0 != b.0 && a.1 != b.1, "body {i} collides");
            }
        }
    }

    /// The leading bytes `T`'s decoder rejects as a bad tag (`what`), the
    /// rest of the buffer being zeros — a valid encoding of every field.
    fn bad_tags<T: Wire>(what: &'static str) -> Vec<u8> {
        let rejected = |t: &u8| {
            let mut buf = [0u8; 64];
            buf[0] = *t;
            T::dec(&mut Reader::new(&buf)).err() == Some(DecodeError(what))
        };
        (0..=u8::MAX).filter(rejected).collect()
    }

    #[test]
    fn truncated_and_mistagged_bytes_are_typed_errors() {
        // Tags are dense from zero: everything from one past the last
        // variant up is a typed error.
        let from = |n: u8| (n..=u8::MAX).collect::<Vec<_>>();
        assert_eq!(bad_tags::<Instr>("bad Instr tag"), from(19));
        assert_eq!(bad_tags::<IdxInstr>("bad IdxInstr tag"), from(8));
        assert_eq!(bad_tags::<Node>("bad Node tag"), from(5));
        assert_eq!(bad_tags::<Op>("bad Op tag"), from(2));
        assert_eq!(bad_tags::<IdxOp>("bad IdxOp tag"), from(2));
        assert_eq!(bad_tags::<PointRef>("bad PointRef tag"), from(3));
        assert_eq!(bad_tags::<Option<u8>>("bad Option tag"), from(2));
        assert_eq!(bad_tags::<UnOp>("bad UnOp"), from(UnOp::ALL.len() as u8));
        assert_eq!(bad_tags::<BinOp>("bad BinOp"), from(BinOp::ALL.len() as u8));
        assert_eq!(bad_tags::<Cmp>("bad Cmp"), from(Cmp::ALL.len() as u8));
        // An instruction cut anywhere is an error, never a shorter one.
        for (i, _) in samples() {
            let mut bytes = Vec::new();
            i.enc(&mut bytes);
            assert_eq!(Instr::dec(&mut Reader::new(&bytes)), Ok(i.clone()));
            for cut in 0..bytes.len() {
                assert!(Instr::dec(&mut Reader::new(&bytes[..cut])).is_err(), "{i:?} cut at {cut}");
            }
        }
        // A tree nested past the decoder's depth budget is refused before it
        // can recurse far.
        let mut deep = vec![];
        for _ in 0..100 {
            deep = vec![Node::Loop { count: 1, body: deep }];
        }
        let bytes = encoded(&kernel(deep));
        assert_eq!(
            decode_kernel(&mut Reader::new(&bytes)).err(),
            Some(DecodeError("nesting too deep"))
        );
        // Whole kernels: every strict prefix fails, no byte value panics.
        for body in bodies() {
            let bytes = encoded(&kernel(body));
            for cut in 0..bytes.len() {
                assert!(decode_kernel(&mut Reader::new(&bytes[..cut])).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                let mut m = bytes.clone();
                for v in [m[at] ^ 0xff, m[at].wrapping_add(1), u8::MAX] {
                    m[at] = v;
                    let _ = decode_kernel(&mut Reader::new(&m));
                }
            }
        }
    }
}
