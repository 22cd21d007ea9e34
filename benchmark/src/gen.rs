//! Seeded input generators. Everything a pass feeds the measured crates is
//! drawn here from `--seed`: the same seed gives the same mechanisms, cell
//! order, request sequence and probe inputs, in every process of a run.

use chemkin::synth::{dme_config, SynthConfig};
use singe::Variant;
use singe_serve::{ArchId, KernelId};

/// SplitMix64: small, seedable from any `u64`, and good enough to draw
/// workload shapes (the mechanisms' own coefficients come from the
/// `chemkin` generator, seeded with a value drawn here).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose` under `seed`; distinct purposes are
    /// independent, so adding a draw to one generator moves no other.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A mechanism with DME's Figure 3 shape and seed-drawn coefficients: the
/// held-out input no figure or default was tuned on.
pub fn heldout_config(seed: u64) -> SynthConfig {
    SynthConfig {
        name: "heldout".into(),
        seed: Rng::new(seed, "heldout").next_u64(),
        ..dme_config()
    }
}

/// `n` tenant mechanisms named `<prefix>0..`, 10–30 species and 20–175
/// reactions each. The shapes are a fixed ladder over those ranges (tenant
/// `i` of `n` always has the same species and reaction counts), so two
/// seeds serve equally heavy tenants and a latency does not move because a
/// seed happened to draw larger mechanisms. What the seed draws is each
/// mechanism's content: every coefficient, reaction and species choice.
pub fn tenant_configs(seed: u64, prefix: &str, n: usize) -> Vec<SynthConfig> {
    let mut rng = Rng::new(seed, prefix);
    // Reaction counts walk the ladder with a stride, so that species and
    // reaction counts are not ranked alike.
    let stride = coprime_stride(n);
    (0..n)
        .map(|i| {
            let rung = |k: usize, lo: usize, hi: usize| lo + ((hi - lo) * (2 * k + 1)) / (2 * n);
            let n_species = rung(i, 10, 30);
            SynthConfig {
                name: format!("{prefix}{i}"),
                n_species,
                // At least one reaction per species, so every species
                // participates.
                n_reactions: rung(i * stride % n, 20, 175).max(n_species),
                n_qssa: n_species / 5,
                n_stiff: n_species / 4,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

/// A step near `n`/φ that is coprime to `n`: walking `0, s, 2s, … (mod n)`
/// visits every index once and spreads neighbours far apart.
pub fn coprime_stride(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let start = ((n as f64 * 0.618).round() as usize).max(1);
    (start..start + n.max(1))
        .find(|s| gcd(*s, n.max(1)) == 1)
        .unwrap_or(1)
}

/// Which mechanism a figure cell compiles for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mech {
    Dme,
    Heptane,
    Heldout,
}

impl Mech {
    pub fn name(self) -> &'static str {
        match self {
            Mech::Dme => "dme",
            Mech::Heptane => "heptane",
            Mech::Heldout => "heldout",
        }
    }
}

/// One kernel of the figure sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub kernel: KernelId,
    pub mech: Mech,
    pub arch: ArchId,
    pub variant: Variant,
}

impl Cell {
    /// The warp-specialized/baseline pair this cell belongs to, as the
    /// `cell.<pair>.speedup` metrics and the paper reference name it.
    pub fn pair(&self) -> String {
        format!(
            "{}-{}-{}",
            self.kernel.name(),
            self.mech.name(),
            self.arch.name()
        )
    }

    pub fn id(&self) -> String {
        let v = if self.variant == Variant::Baseline {
            "base"
        } else {
            "ws"
        };
        format!("{}-{v}", self.pair())
    }
}

/// The pairs of the figure sweep in canonical order: 3 kernels × DME and
/// heptane × 3 archs (figs 11–16 plus their Hopper rows), then the three
/// held-out pairs on Kepler. `smoke` keeps two canonical pairs and one
/// held-out pair.
pub fn figure_pairs(smoke: bool) -> Vec<(KernelId, Mech, ArchId)> {
    if smoke {
        return vec![
            (KernelId::Viscosity, Mech::Dme, ArchId::Kepler),
            (KernelId::Diffusion, Mech::Dme, ArchId::Fermi),
            (KernelId::Viscosity, Mech::Heldout, ArchId::Kepler),
        ];
    }
    let mut pairs = Vec::new();
    for kernel in KernelId::ALL {
        for mech in [Mech::Dme, Mech::Heptane] {
            for arch in ArchId::ALL {
                pairs.push((kernel, mech, arch));
            }
        }
    }
    for kernel in KernelId::ALL {
        pairs.push((kernel, Mech::Heldout, ArchId::Kepler));
    }
    pairs
}

/// The cells of one figure pass (both variants of every pair) in the
/// seed's order.
pub fn figure_cells(seed: u64, smoke: bool) -> Vec<Cell> {
    let mut cells: Vec<Cell> = figure_pairs(smoke)
        .into_iter()
        .flat_map(|(kernel, mech, arch)| {
            [Variant::WarpSpecialized, Variant::Baseline].map(|variant| Cell {
                kernel,
                mech,
                arch,
                variant,
            })
        })
        .collect();
    Rng::new(seed, "cell-order").shuffle(&mut cells);
    cells
}

/// Zipf(1.0) over `n` ranks: rank `r` (from 0) is drawn with weight
/// `1/(r+1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|c| *c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_sequence(seed: u64, n: usize, len: usize) -> Vec<usize> {
        let z = Zipf::new(n);
        let mut rng = Rng::new(seed, "zipf");
        (0..len).map(|_| z.draw(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let cfgs = |seed| {
            tenant_configs(seed, "t", 12)
                .iter()
                .map(|c| (c.n_species, c.n_reactions, c.seed))
                .collect::<Vec<_>>()
        };
        assert_eq!(cfgs(7), cfgs(7));
        assert_ne!(cfgs(7), cfgs(8));
        assert_eq!(heldout_config(7).seed, heldout_config(7).seed);
        assert_ne!(heldout_config(7).seed, heldout_config(8).seed);
        let order = |seed| {
            figure_cells(seed, false)
                .iter()
                .map(Cell::id)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        assert_eq!(zipf_sequence(7, 100, 500), zipf_sequence(7, 100, 500));
        assert_ne!(zipf_sequence(7, 100, 500), zipf_sequence(8, 100, 500));
    }

    #[test]
    fn tenants_stay_inside_the_stated_shape_whatever_the_seed() {
        for n in [1, 4, 8, 28, 48] {
            let shapes = |seed| {
                tenant_configs(seed, "t", n)
                    .iter()
                    .map(|c| (c.n_species, c.n_reactions))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shapes(3), shapes(4), "shapes are a ladder, not a draw");
            for c in tenant_configs(3, "t", n) {
                assert!((10..=30).contains(&c.n_species), "{c:?}");
                assert!(
                    (20..=175).contains(&c.n_reactions) && c.n_reactions >= c.n_species,
                    "{c:?}"
                );
                assert!(c.n_qssa + c.n_stiff <= c.n_species, "{c:?}");
            }
        }
        let wide = tenant_configs(3, "t", 48);
        assert!(wide.iter().any(|c| c.n_species <= 11) && wide.iter().any(|c| c.n_species >= 29));
        assert!(
            wide.iter().any(|c| c.n_reactions <= 30) && wide.iter().any(|c| c.n_reactions >= 165)
        );
    }

    #[test]
    fn strides_visit_every_index() {
        for n in 1..200 {
            let s = coprime_stride(n);
            let mut seen = vec![false; n];
            for k in 0..n {
                seen[k * s % n] = true;
            }
            assert!(seen.iter().all(|x| *x), "n {n} stride {s}");
        }
    }

    #[test]
    fn the_sweep_has_36_canonical_and_6_held_out_cells() {
        let cells = figure_cells(1, false);
        assert_eq!(cells.len(), 42);
        assert_eq!(cells.iter().filter(|c| c.mech == Mech::Heldout).count(), 6);
        let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 42);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let seq = zipf_sequence(5, 50, 20_000);
        assert!(seq.iter().all(|r| *r < 50));
        let count = |r| seq.iter().filter(|x| **x == r).count();
        assert!(
            count(0) > count(1) && count(1) > count(9),
            "{} {} {}",
            count(0),
            count(1),
            count(9)
        );
    }
}
