//! The fidelity table: every Fermi and Kepler figure cell against the
//! paper's band (`report fidelity`, ROADMAP item 1).
//!
//! The bands are the ones the repository's benchmark scores
//! `paper_gap_geomean` from: `benchmark/paper_reference.json` is read here
//! at compile time, never copied, and a cell's gap is the benchmark's
//! `max(measured / paper, paper / measured)` against the band's midpoint at
//! 64^3 — so this table and that metric cannot disagree. Each row also
//! carries what Figure 10 and the register file ask of the kernel: its
//! constant registers and its 32-bit registers per thread against the
//! architecture's ceiling.
//!
//! The rows are the `fidelity` entry of `BENCH_report.json`
//! ([`crate::record`]). The gate is monotone: against a committed record,
//! no cell's gap may widen (CI lets a widening through only with an
//! EXPERIMENTS.md change that says so).

use std::fmt::Write as _;

use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;

use crate::object;
use crate::record::{self, Json};
use crate::{build, timing_report, Kind, Variant};

const PAPER_REFERENCE: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/paper_reference.json"));

/// Grid the speedups are read at (the benchmark's: the middle of 32^3,
/// 64^3 and 128^3).
const GRID_POINTS: usize = 64 * 64 * 64;

/// One cell of the paper's figures 11–16: the band its speedup was read as.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperBand {
    /// `kernel-mech-arch`, the benchmark's name for the cell.
    pub cell: String,
    /// Kernel of the cell.
    pub kind: Kind,
    /// `dme` or `heptane`.
    pub mech: String,
    /// `fermi` or `kepler`.
    pub arch: String,
    /// Band ends (equal for a single reading).
    pub lo: f64,
    /// See `lo`.
    pub hi: f64,
}

/// The twelve bands of `benchmark/paper_reference.json`.
pub fn paper_bands() -> Vec<PaperBand> {
    let reference = record::parse(PAPER_REFERENCE.as_bytes()).expect("the paper reference parses");
    let cells = reference.get("cells").expect("the paper reference lists cells").items();
    cells
        .iter()
        .map(|o| {
            let field = |key| o.get(key).unwrap_or_else(|| panic!("paper cell without {key}: {o:?}"));
            let text = |key| field(key).as_str().unwrap_or_else(|| panic!("{key} of {o:?} is no string"));
            let num = |key| field(key).as_f64().unwrap_or_else(|| panic!("{key} of {o:?} is no number"));
            let (kernel, mech, arch) = (text("kernel"), text("mech"), text("arch"));
            PaperBand {
                cell: format!("{kernel}-{mech}-{arch}"),
                kind: kernel.parse().unwrap_or_else(|e| panic!("paper cell {o:?}: {e}")),
                mech: mech.to_string(),
                arch: arch.to_string(),
                lo: num("lo"),
                hi: num("hi"),
            }
        })
        .collect()
}

/// One measured cell against its band.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityRow {
    /// The paper's side.
    pub band: PaperBand,
    /// Warp-specialized over baseline points per second at 64^3.
    pub speedup: f64,
    /// Constant registers per thread of the warp-specialized kernel.
    pub const_regs: usize,
    /// Its 32-bit registers per thread, as declared (occupancy clamps).
    pub regs32: usize,
    /// The architecture's registers per thread.
    pub reg_ceiling: usize,
}

impl FidelityRow {
    /// `max(measured / paper, paper / measured)` against the band's
    /// midpoint: 1 is a match, and overshoot counts like undershoot.
    pub fn gap(&self) -> f64 {
        let paper = (self.band.lo + self.band.hi) / 2.0;
        (self.speedup / paper).max(paper / self.speedup)
    }

    fn json(&self) -> Json {
        object! {
            "cell": &self.band.cell,
            "speedup": self.speedup,
            "paper_lo": self.band.lo,
            "paper_hi": self.band.hi,
            "gap": self.gap(),
            "const_regs": self.const_regs,
            "regs32": self.regs32,
            "reg_ceiling": self.reg_ceiling,
        }
    }
}

/// Measure every cell the paper has a band for. `mechs` are looked up by
/// name (`dme`, `heptane`).
pub fn fidelity_rows(mechs: &[&Mechanism]) -> Vec<FidelityRow> {
    paper_bands()
        .into_iter()
        .map(|band| {
            let mech = mechs
                .iter()
                .find(|m| m.name == band.mech)
                .unwrap_or_else(|| panic!("no mechanism named {}", band.mech));
            let arch = match band.arch.as_str() {
                "fermi" => GpuArch::fermi_c2070(),
                "kepler" => GpuArch::kepler_k20c(),
                other => panic!("the paper measured no {other}"),
            };
            let ws = build(band.kind, mech, &arch, Variant::WarpSpecialized);
            let base = build(band.kind, mech, &arch, Variant::Baseline);
            let pps = |b| timing_report(b, &arch, GRID_POINTS).points_per_sec;
            FidelityRow {
                speedup: pps(&ws) / pps(&base),
                const_regs: ws.stats.as_ref().map_or(0, |s| s.const_regs_per_thread),
                regs32: ws.kernel.regs32_per_thread(),
                reg_ceiling: arch.max_regs_per_thread,
                band,
            }
        })
        .collect()
}

/// Geometric mean of the rows' gaps: the benchmark's `paper_gap_geomean`.
pub fn gap_geomean(rows: &[FidelityRow]) -> f64 {
    (rows.iter().map(|r| r.gap().ln()).sum::<f64>() / rows.len() as f64).exp()
}

/// The table as text.
pub fn render(rows: &[FidelityRow]) -> String {
    let mut out = String::from(
        "== fidelity: ws/baseline speedup at 64^3 against the paper's bands (figures 11-16) ==\n",
    );
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>11} {:>7} {:>6} {:>14}",
        "cell", "speedup", "paper", "gap", "cregs", "regs32/ceiling"
    );
    for r in rows {
        let paper = if r.band.lo == r.band.hi {
            format!("~{}", r.band.lo)
        } else {
            format!("{}-{}", r.band.lo, r.band.hi)
        };
        let _ = writeln!(
            out,
            "{:<26} {:>8.3} {:>11} {:>7.3} {:>6} {:>14}{}",
            r.band.cell,
            r.speedup,
            paper,
            r.gap(),
            r.const_regs,
            format!("{}/{}", r.regs32, r.reg_ceiling),
            if r.regs32 > r.reg_ceiling { "  over" } else { "" }
        );
    }
    let _ = writeln!(out, "paper_gap_geomean {:.4} over {} cells", gap_geomean(rows), rows.len());
    out
}

/// The `fidelity` entry of `BENCH_report.json`: the rows and how they
/// were measured (units and host are the record's `provenance`).
pub fn entry(rows: &[FidelityRow]) -> Json {
    object! {
        "options": "serve defaults; baseline at 8 warps from the same graph; 64^3; \
                    bands of benchmark/paper_reference.json",
        "paper_gap_geomean": gap_geomean(rows),
        "rows": rows.iter().map(FidelityRow::json).collect::<Vec<_>>(),
    }
}

/// The cells whose gap is wider than in `committed` (a parsed
/// `BENCH_report.json`, of this layout or an older one: the `fidelity`
/// entry's rows have always named their `cell` and `gap`), as (cell,
/// committed gap, gap now). A cell the committed table lacks has nothing to
/// widen against.
pub fn widened(rows: &[FidelityRow], committed: &Json) -> Vec<(String, f64, f64)> {
    let was = committed.get("fidelity").and_then(|f| f.get("rows")).map_or(&[][..], Json::items);
    rows.iter()
        .filter_map(|r| {
            let row = was.iter().find(|o| o.get("cell").and_then(Json::as_str) == Some(&r.band.cell))?;
            let before = row.get("gap")?.as_f64()?;
            // The simulated numbers repeat exactly; the slack is for a
            // libm that rounds a last digit differently.
            (r.gap() > before * (1.0 + 1e-9)).then(|| (r.band.cell.clone(), before, r.gap()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmarks_twelve_bands_parse() {
        let bands = paper_bands();
        assert_eq!(bands.len(), 12);
        assert_eq!(bands[0].cell, "viscosity-dme-fermi");
        assert_eq!((bands[0].lo, bands[0].hi), (1.2, 1.3));
        let last = &bands[11];
        assert_eq!(
            (last.cell.as_str(), last.kind, last.lo, last.hi),
            ("chemistry-heptane-kepler", Kind::Chemistry, 1.5, 1.5)
        );
        assert!(bands.iter().all(|b| b.lo <= b.hi && ["fermi", "kepler"].contains(&&*b.arch)));
    }

    fn row(cell: &str, speedup: f64, lo: f64, hi: f64) -> FidelityRow {
        let band = PaperBand {
            cell: cell.into(),
            kind: Kind::Diffusion,
            mech: "dme".into(),
            arch: "kepler".into(),
            lo,
            hi,
        };
        FidelityRow { band, speedup, const_regs: 5, regs32: 66, reg_ceiling: 255 }
    }

    #[test]
    fn gap_counts_overshoot_like_undershoot_and_the_entry_round_trips() {
        let rows = [row("a", 2.0, 1.0, 1.0), row("b", 0.5, 0.9, 1.1), row("c", 1.4, 1.33, 1.5)];
        assert_eq!([rows[0].gap(), rows[1].gap()], [2.0, 2.0]);
        assert!((gap_geomean(&rows[..2]) - 2.0).abs() < 1e-12);
        let doc = object! { "fidelity": entry(&rows) };
        let doc = record::parse(doc.document().as_bytes()).expect("the entry parses back");
        // Nothing widens against itself, whatever the digits.
        assert_eq!(widened(&rows, &doc), []);
        // Closer to the band: fine. Further, on either side: reported.
        let now = [row("a", 1.5, 1.0, 1.0), row("b", 0.4, 0.9, 1.1), row("c", 1.7, 1.33, 1.5)];
        let wide = widened(&now, &doc);
        assert_eq!(wide.iter().map(|w| w.0.as_str()).collect::<Vec<_>>(), ["b", "c"]);
        assert_eq!((wide[0].1, wide[0].2), (2.0, 2.5));
        // No committed table, or a new cell: nothing to compare with.
        assert_eq!(widened(&now, &object! {}), []);
        assert_eq!(widened(&[row("new", 9.0, 1.0, 1.0)], &doc), []);
    }

    #[test]
    fn the_gate_reads_the_layout_the_record_had_before_it_was_one_document() {
        // The file as committed at ab9893d, abridged: one entry per line,
        // wall-clock lines around them.
        let old = record::parse(
            br#"{
  "jobs": 2,
  "total_seconds": 16.423,
  "fidelity": {"sha": "3cc6ad1", "host": "2 cpus, linux/x86_64", "unit": "x (ws over baseline points/s)", "paper_gap_geomean": 1.3176641665660613, "rows": [{"cell": "viscosity-dme-fermi", "speedup": 1.1735645575259317, "paper_lo": 1.2, "paper_hi": 1.3, "gap": 1.065131007905698, "const_regs": 8, "regs32": 58, "reg_ceiling": 63}, {"cell": "diffusion-dme-kepler", "speedup": 2.41, "paper_lo": 2.5, "paper_hi": 2.5, "gap": 1.0373443983402488, "const_regs": 5, "regs32": 66, "reg_ceiling": 255}]},
  "runs": [
    {"jobs": 2, "total_seconds": 16.423}
  ],
  "figures": [
    {"figure": "verify", "seconds": 6.436, "rows": 54}
  ]
}
"#,
        )
        .expect("the old layout is JSON");
        let now = [row("viscosity-dme-fermi", 1.1735645575259317, 1.2, 1.3), row("diffusion-dme-kepler", 2.2, 2.5, 2.5)];
        let wide = widened(&now, &old);
        assert_eq!(wide.len(), 1, "{wide:?}");
        assert_eq!((wide[0].0.as_str(), wide[0].1), ("diffusion-dme-kepler", 1.0373443983402488));
    }
}
