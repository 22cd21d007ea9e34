//! Chemistry kernel frontend (paper §3.4, Figures 6–7).
//!
//! Four phases over the flattened [`ChemistrySpec`]:
//!
//! 1. **Rates** — forward/reverse rate constants per reaction. Reactions
//!    the QSSA phase needs are assigned to warps *first* (scheduled in an
//!    earlier phase); the remaining reactions execute on the non-QSSA
//!    warps while the QSSA warps proceed — the Figure 6 overlap. Rate
//!    models produce distinct code shapes (Arrhenius / Lindemann / Troe /
//!    Landau-Teller; explicit vs equilibrium reverse), which the §5.1
//!    overlay merges per shape exactly as Listing 1 merges Landau-Teller
//!    and Lindemann rates.
//! 2. **QSSA** — algebraic reconstruction of quasi-steady concentrations on
//!    a dedicated subset of warps, walking the dependence DAG (Figure 7);
//!    rate values cross warps through the recycled shared buffer
//!    (`Placement::Buffer`), whose pass barriers are the paper's
//!    "exchanged in passes" through shared memory.
//! 3. **Stiffness** — per-stiff-species corrections combining a
//!    global-memory diffusion load and the molar fraction, both addressed
//!    through warp-indexing constants (Listing 4).
//! 4. **Output** — rates of progress and stoichiometric accumulation into
//!    per-species `wdot`, scaled by the stiffness factors.

use crate::dfg::{Dfg, Operation};
use crate::expr::{Expr, RowRef, Stmt, VarId};
use chemkin::reaction::RateModel;
use chemkin::reference::tables::{ChemistrySpec, ReverseKind, SpeciesRef, R_ERG, T_MID};
use chemkin::{P_ATM, R_CAL};
use gpu_sim::isa::ArrayDecl;

/// Array index: temperature (input, 1 row).
pub const ARR_TEMP: u16 = 0;
/// Array index: pressure (input, 1 row).
pub const ARR_PRES: u16 = 1;
/// Array index: molar fractions (input, N rows).
pub const ARR_XFRAC: u16 = 2;
/// Array index: per-species diffusion rates (input, N rows — stiffness).
pub const ARR_DIFF: u16 = 3;
/// Array index: per-species rate-of-change output (N rows).
pub const ARR_OUT: u16 = 4;

/// How many warps are siphoned off for the QSSA computation (Figure 6).
pub fn qssa_warp_count(warps: usize, n_qssa: usize) -> usize {
    if n_qssa == 0 || warps < 2 {
        0
    } else {
        (warps / 4).max(1)
    }
}

/// `T` as an expression (global load).
fn temp() -> Expr {
    Expr::Input { array: ARR_TEMP, row: RowRef::Fixed(0) }
}

/// `conc^nu` with the same small-integer fast paths as the reference's
/// `stoich_pow`, so compiled kernels and the CPU reference agree exactly.
fn stoich_pow_expr(conc: Expr, nu: f64) -> Expr {
    if nu == 1.0 {
        conc
    } else if nu == 2.0 {
        conc.clone().mul(conc)
    } else if nu == 3.0 {
        conc.clone().mul(conc.clone()).mul(conc)
    } else {
        conc.pow(Expr::Lit(nu))
    }
}

/// Build the chemistry dataflow graph for `warps` warps.
pub fn chemistry_dfg(spec: &ChemistrySpec, warps: usize) -> Dfg {
    let n = spec.n_trans;
    let nr = spec.reactions.len();
    let nq = spec.n_qssa;
    let w = warps;
    let wq = qssa_warp_count(w, nq);
    let non_qssa_warps: Vec<usize> = (0..w - wq).collect();
    let qssa_warps: Vec<usize> = (w - wq..w).collect();

    let mut next_var: VarId = 0;
    let alloc = |next_var: &mut VarId, k: usize| -> usize {
        let v = *next_var;
        *next_var += k as VarId;
        v as usize
    };
    // Prep vars.
    let v_lnt = alloc(&mut next_var, 1);
    let v_invt = alloc(&mut next_var, 1);
    let v_ctot = alloc(&mut next_var, 1);
    let v_mbase = alloc(&mut next_var, 1);
    let v_conc = alloc(&mut next_var, n);
    let v_kf = alloc(&mut next_var, nr);
    let v_kr = alloc(&mut next_var, nr); // defined only when reversible
    let v_m = alloc(&mut next_var, nr); // defined only for three-body q ops
    let v_qconc = alloc(&mut next_var, nq);
    let v_stiff = alloc(&mut next_var, n); // defined only for stiff species
    let v_q = alloc(&mut next_var, nr);

    let mut ops: Vec<Operation> = Vec::new();
    // Track which optional vars actually get defined so `n_vars` can be
    // compacted at the end.
    let mut defined: Vec<bool> = Vec::new();

    // --- Phase 0: prep (lnT, 1/T, total concentration, base third body). ---
    {
        let mut sumx = Expr::Lit(0.0);
        for i in 0..n {
            sumx = sumx.add(Expr::Input { array: ARR_XFRAC, row: RowRef::Fixed(i as u32) });
        }
        ops.push(Operation {
            name: "prep".into(),
            body: vec![
                Stmt::Local(0, temp()),
                Stmt::DefVar(v_lnt as VarId, Expr::Local(0).log()),
                Stmt::DefVar(v_invt as VarId, Expr::Lit(1.0).div(Expr::Local(0))),
                Stmt::DefVar(
                    v_ctot as VarId,
                    Expr::Input { array: ARR_PRES, row: RowRef::Fixed(0) }
                        .mul(Expr::Var(v_invt as VarId))
                        .mul(Expr::Lit(1.0 / R_ERG)),
                ),
                Stmt::DefVar(v_mbase as VarId, sumx.mul(Expr::Var(v_ctot as VarId))),
            ],
            n_locals: 1,
            consts: vec![],
            irows: vec![],
            pinned_warp: Some(0),
            phase: 0,
        });
    }

    // --- Phase 0: per-species concentrations. ---
    for i in 0..n {
        ops.push(Operation {
            name: format!("conc[{i}]"),
            body: vec![Stmt::DefVar(
                (v_conc + i) as VarId,
                Expr::Input { array: ARR_XFRAC, row: RowRef::Slot(0) }
                    .mul(Expr::Var(v_ctot as VarId)),
            )],
            n_locals: 0,
            consts: vec![],
            irows: vec![i as u32],
            pinned_warp: Some(i % w),
            phase: 0,
        });
    }

    // --- Phases 1-2: rate ops. QSSA-needed reactions first (phase 1,
    // spread over all warps); the rest on non-QSSA warps (phase 2). ---
    let qssa_rx = spec.qssa_reaction_indices();
    let mut rr_counter = [0usize; 2];
    let mut rate_pin = vec![0usize; nr];
    for (ri, r) in spec.reactions.iter().enumerate() {
        let needed_by_qssa = qssa_rx.contains(&ri);
        let (phase, pin) = if needed_by_qssa {
            let p = rr_counter[0] % w;
            rr_counter[0] += 1;
            (1, p)
        } else {
            let p = non_qssa_warps[rr_counter[1] % non_qssa_warps.len()];
            rr_counter[1] += 1;
            (2, p)
        };
        rate_pin[ri] = pin;

        let mut consts: Vec<f64> = Vec::new();
        let mut body: Vec<Stmt> = Vec::new();
        let mut n_locals: u16 = 0;
        let local = |body: &mut Vec<Stmt>, n_locals: &mut u16, e: Expr| -> Expr {
            let l = *n_locals;
            *n_locals += 1;
            body.push(Stmt::Local(l, e));
            Expr::Local(l)
        };
        fn c(consts: &mut Vec<f64>, v: f64) -> Expr {
            consts.push(v);
            Expr::Const((consts.len() - 1) as u16)
        }

        // Effective third-body concentration.
        let m_expr = r.third_body.as_ref().map(|effs| {
            let mut m = Expr::Var(v_mbase as VarId);
            for &(s, e) in effs {
                m = c(&mut consts, e - 1.0)
                    .mul(Expr::Var((v_conc + s) as VarId))
                    .add(m);
            }
            m
        });

        // ln k = lnA + beta lnT - (E/R)/T, shared by every model's limits.
        fn lnk(
            consts: &mut Vec<f64>,
            a: chemkin::reaction::Arrhenius,
            v_lnt: usize,
            v_invt: usize,
        ) -> Expr {
            let ca = c(consts, a.a.ln());
            let cb = c(consts, a.beta);
            let ce = c(consts, a.e_act / R_CAL);
            cb.fma(Expr::Var(v_lnt as VarId), ca)
                .sub(ce.mul(Expr::Var(v_invt as VarId)))
        }

        let kf_expr = match &r.rate {
            RateModel::Arrhenius(a) => lnk(&mut consts, *a, v_lnt, v_invt).exp(),
            RateModel::Lindemann { high, low } => {
                let kinf =
                    local(&mut body, &mut n_locals, lnk(&mut consts, *high, v_lnt, v_invt).exp());
                let klow = lnk(&mut consts, *low, v_lnt, v_invt).exp();
                let m = local(&mut body, &mut n_locals, m_expr.clone().expect("falloff has m"));
                let pr = local(&mut body, &mut n_locals, klow.mul(m).div(kinf.clone()));
                kinf.mul(pr.clone()).div(Expr::Lit(1.0).add(pr))
            }
            RateModel::Troe { high, low, troe } => {
                let kinf =
                    local(&mut body, &mut n_locals, lnk(&mut consts, *high, v_lnt, v_invt).exp());
                let klow = lnk(&mut consts, *low, v_lnt, v_invt).exp();
                let m = local(&mut body, &mut n_locals, m_expr.clone().expect("falloff has m"));
                let pr = local(&mut body, &mut n_locals, klow.mul(m).div(kinf.clone()));
                // F_cent = (1-A) e^{-T/T3} + A e^{-T/T1} [+ e^{-T2/T}],
                // clamped away from zero like the reference.
                let t = local(&mut body, &mut n_locals, temp());
                let c1 = c(&mut consts, 1.0 - troe.a);
                let c3 = c(&mut consts, -1.0 / troe.t3);
                let ca = c(&mut consts, troe.a);
                let ct1 = c(&mut consts, -1.0 / troe.t1);
                let mut fc = c1
                    .mul(t.clone().mul(c3).exp())
                    .add(ca.mul(t.clone().mul(ct1).exp()));
                if let Some(t2) = troe.t2 {
                    let ct2 = c(&mut consts, -t2);
                    fc = fc.add(ct2.mul(Expr::Var(v_invt as VarId)).exp());
                }
                let lfc =
                    local(&mut body, &mut n_locals, fc.max(Expr::Lit(1.0e-30)).log10());
                // Listing 1's Troe sequence.
                let flogpr = local(
                    &mut body,
                    &mut n_locals,
                    pr.clone()
                        .log10()
                        .sub(Expr::Lit(0.4))
                        .sub(Expr::Lit(0.67).mul(lfc.clone())),
                );
                let fdenom = Expr::Lit(0.75)
                    .sub(Expr::Lit(1.27).mul(lfc.clone()))
                    .sub(Expr::Lit(0.14).mul(flogpr.clone()));
                let fquan0 = local(&mut body, &mut n_locals, flogpr.div(fdenom));
                let fquan = lfc.div(Expr::Lit(1.0).add(fquan0.clone().mul(fquan0)));
                let full = kinf
                    .mul(pr.clone())
                    .div(Expr::Lit(1.0).add(pr.clone()))
                    .mul(fquan.mul(Expr::Lit(std::f64::consts::LN_10)).exp());
                // pr <= 0 -> rate 0 (the reference's guard).
                pr.select_gt(Expr::Lit(0.0), full, Expr::Lit(0.0))
            }
            RateModel::LandauTeller { arrhenius, b, c: lc } => {
                let t13i = local(&mut body, &mut n_locals, Expr::Var(v_invt as VarId).cbrt());
                let cb = c(&mut consts, *b);
                let cc = c(&mut consts, *lc);
                let extra = cb.mul(t13i.clone()).add(cc.mul(t13i.clone().mul(t13i)));
                lnk(&mut consts, *arrhenius, v_lnt, v_invt).add(extra).exp()
            }
        };
        let kf = local(&mut body, &mut n_locals, kf_expr);
        body.push(Stmt::DefVar((v_kf + ri) as VarId, kf.clone()));

        match &r.reverse {
            ReverseKind::None => {}
            ReverseKind::Explicit(a) => {
                let kr = lnk(&mut consts, *a, v_lnt, v_invt).exp();
                body.push(Stmt::DefVar((v_kr + ri) as VarId, kr));
            }
            ReverseKind::Equilibrium => {
                // dG/(RT) with the global 1000 K range switch, then
                // k_r = k_f / exp(-dG + sum_nu ln(P0/(R'T))).
                let t = local(&mut body, &mut n_locals, temp());
                let mut dgs: Vec<Expr> = Vec::with_capacity(2);
                for range in 0..2 {
                    let g = &r.gibbs[range];
                    let c0 = c(&mut consts, g[0]);
                    let c1 = c(&mut consts, g[1]);
                    let c2 = c(&mut consts, g[2]);
                    let c3 = c(&mut consts, g[3]);
                    let c4 = c(&mut consts, g[4]);
                    let c5 = c(&mut consts, g[5]);
                    let c6 = c(&mut consts, g[6]);
                    let poly = c4
                        .fma(t.clone(), c3)
                        .fma(t.clone(), c2)
                        .fma(t.clone(), c1)
                        .mul(t.clone());
                    dgs.push(
                        c0.mul(Expr::Lit(1.0).sub(Expr::Var(v_lnt as VarId)))
                            .add(poly)
                            .add(c5.mul(Expr::Var(v_invt as VarId)))
                            .add(c6),
                    );
                }
                let dg_high = dgs.pop().unwrap();
                let dg_low = dgs.pop().unwrap();
                let dgv = local(
                    &mut body,
                    &mut n_locals,
                    Expr::Lit(T_MID).select_gt(t, dg_low, dg_high),
                );
                let csum = c(&mut consts, r.sum_nu);
                let ln_kc = dgv.neg().add(
                    csum.mul(Expr::Lit((P_ATM / R_ERG).ln()).sub(Expr::Var(v_lnt as VarId))),
                );
                body.push(Stmt::DefVar((v_kr + ri) as VarId, kf.clone().div(ln_kc.exp())));
            }
        }

        // Three-body (non-falloff) reactions also export [M] for the q op.
        if r.third_body.is_some() && !r.falloff {
            body.push(Stmt::DefVar((v_m + ri) as VarId, m_expr.expect("three-body has m")));
        }

        ops.push(Operation {
            name: format!("rate[{ri}]"),
            body,
            n_locals,
            consts,
            irows: vec![],
            pinned_warp: Some(pin),
            phase,
        });
    }

    // --- Phase 3: QSSA reconstruction on the siphoned warps (Figure 7). ---
    // A QSSA concentration referenced before its own order contributes
    // zero, exactly like the reference implementation.
    let conc_of = |s: &SpeciesRef, current_order: usize| -> Expr {
        match s {
            SpeciesRef::Transported(i) => Expr::Var((v_conc + i) as VarId),
            SpeciesRef::Qssa(qi) => {
                if *qi < current_order {
                    Expr::Var((v_qconc + qi) as VarId)
                } else {
                    Expr::Lit(0.0)
                }
            }
        }
    };
    for q in &spec.qssa {
        let qi = q.order;
        let mut num = Expr::Lit(0.0);
        for &(ri, coeff) in &q.producers {
            let mut term = Expr::Lit(coeff).mul(Expr::Var((v_kf + ri) as VarId));
            for (s, nu) in &spec.reactions[ri].reactants {
                term = term.mul(stoich_pow_expr(conc_of(s, qi), *nu));
            }
            num = num.add(term);
        }
        let mut den = Expr::Lit(0.0);
        for &(ri, coeff) in &q.consumers {
            let mut term = Expr::Lit(coeff).mul(Expr::Var((v_kf + ri) as VarId));
            for (s, nu) in &spec.reactions[ri].reactants {
                if *s == SpeciesRef::Qssa(qi) {
                    continue;
                }
                term = term.mul(stoich_pow_expr(conc_of(s, qi), *nu));
            }
            den = den.add(term);
        }
        ops.push(Operation {
            name: format!("qssa[{qi}]"),
            body: vec![Stmt::DefVar(
                (v_qconc + qi) as VarId,
                num.div(den.add(Expr::Lit(1.0))),
            )],
            n_locals: 0,
            consts: vec![],
            irows: vec![],
            pinned_warp: Some(qssa_warps[qi % wq.max(1)]),
            phase: 3,
        });
    }

    // --- Phase 4: stiffness corrections (Listing 4 warp indexing). ---
    for st in &spec.stiff {
        let i = st.trans_index;
        let d = Expr::Input { array: ARR_DIFF, row: RowRef::Slot(0) };
        let x = Expr::Input { array: ARR_XFRAC, row: RowRef::Slot(1) };
        // f = 1 / (1 + tau (d + x v)).
        let inner = x.mul(Expr::Const(1)).add(d);
        ops.push(Operation {
            name: format!("stiff[{i}]"),
            body: vec![Stmt::DefVar(
                (v_stiff + i) as VarId,
                Expr::Lit(1.0).div(Expr::Const(0).fma(inner, Expr::Lit(1.0))),
            )],
            n_locals: 0,
            consts: vec![st.tau, st.v],
            irows: vec![i as u32, i as u32],
            pinned_warp: Some(i % w),
            phase: 4,
        });
    }

    // --- Phase 5: rates of progress. ---
    let conc_all = |s: &SpeciesRef| -> Expr {
        match s {
            SpeciesRef::Transported(i) => Expr::Var((v_conc + i) as VarId),
            SpeciesRef::Qssa(qi) => Expr::Var((v_qconc + qi) as VarId),
        }
    };
    for (ri, r) in spec.reactions.iter().enumerate() {
        let mut qf = Expr::Var((v_kf + ri) as VarId);
        for (s, nu) in &r.reactants {
            qf = qf.mul(stoich_pow_expr(conc_all(s), *nu));
        }
        let mut q = qf;
        if !matches!(r.reverse, ReverseKind::None) {
            let mut qr = Expr::Var((v_kr + ri) as VarId);
            for (s, nu) in &r.products {
                qr = qr.mul(stoich_pow_expr(conc_all(s), *nu));
            }
            q = q.sub(qr);
        }
        if r.third_body.is_some() && !r.falloff {
            q = q.mul(Expr::Var((v_m + ri) as VarId));
        }
        // Same warp as the rate op: rate constants stay in registers (the
        // §3.4 register-resident working set).
        ops.push(Operation {
            name: format!("q[{ri}]"),
            body: vec![Stmt::DefVar((v_q + ri) as VarId, q)],
            n_locals: 0,
            consts: vec![],
            irows: vec![],
            pinned_warp: Some(rate_pin[ri]),
            phase: 5,
        });
    }

    // --- Phase 6: stoichiometric accumulation + stiffness + store. ---
    for i in 0..n {
        let mut sum = Expr::Lit(0.0);
        for (ri, r) in spec.reactions.iter().enumerate() {
            let mut nu_net = 0.0;
            for (s, nu) in &r.products {
                if *s == SpeciesRef::Transported(i) {
                    nu_net += nu;
                }
            }
            for (s, nu) in &r.reactants {
                if *s == SpeciesRef::Transported(i) {
                    nu_net -= nu;
                }
            }
            if nu_net != 0.0 {
                sum = Expr::Lit(nu_net).fma(Expr::Var((v_q + ri) as VarId), sum);
            }
        }
        let is_stiff = spec.stiff.iter().any(|s| s.trans_index == i);
        let value = if is_stiff {
            sum.mul(Expr::Var((v_stiff + i) as VarId))
        } else {
            sum
        };
        ops.push(Operation {
            name: format!("wdot[{i}]"),
            body: vec![Stmt::Store { array: ARR_OUT, row: RowRef::Slot(0), value }],
            n_locals: 0,
            consts: vec![],
            irows: vec![i as u32],
            pinned_warp: Some(i % w),
            phase: 6,
        });
    }

    // Compact var ids: drop never-defined optional vars (kr of irreversible
    // reactions, m of non-three-body reactions, stiff of non-stiff species).
    defined.resize(next_var as usize, false);
    for op in &ops {
        for v in op.outputs() {
            defined[v as usize] = true;
        }
    }
    let mut remap: Vec<VarId> = vec![0; next_var as usize];
    let mut compact: VarId = 0;
    for (v, d) in defined.iter().enumerate() {
        if *d {
            remap[v] = compact;
            compact += 1;
        }
    }
    for op in &mut ops {
        for s in &mut op.body {
            remap_stmt(s, &remap);
        }
    }

    Dfg {
        name: "chemistry".into(),
        ops,
        n_vars: compact,
        arrays: vec![
            ArrayDecl { name: "temperature".into(), rows: 1, output: false },
            ArrayDecl { name: "pressure".into(), rows: 1, output: false },
            ArrayDecl { name: "mole_frac".into(), rows: n, output: false },
            ArrayDecl { name: "diffusion".into(), rows: n, output: false },
            ArrayDecl { name: "wdot".into(), rows: n, output: true },
        ],
        force_shared: vec![],
    }
}

fn remap_stmt(s: &mut Stmt, remap: &[VarId]) {
    fn remap_expr(e: &mut Expr, remap: &[VarId]) {
        match e {
            Expr::Var(v) => *v = remap[*v as usize],
            Expr::Un(_, a) => remap_expr(a, remap),
            Expr::Bin(_, a, b) | Expr::CmpGt(a, b) => {
                remap_expr(a, remap);
                remap_expr(b, remap);
            }
            Expr::Tri(_, a, b, c) => {
                remap_expr(a, remap);
                remap_expr(b, remap);
                remap_expr(c, remap);
            }
            _ => {}
        }
    }
    match s {
        Stmt::Local(_, e) | Stmt::Store { value: e, .. } => remap_expr(e, remap),
        Stmt::DefVar(v, e) => {
            *v = remap[*v as usize];
            remap_expr(e, remap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{Compiler, Variant};
    use crate::config::{CompileOptions, Placement};
    use crate::kernels::launch_arrays;
    use chemkin::reference::reference_chemistry;
    use chemkin::state::{GridDims, GridState};
    use chemkin::synth;
    use gpu_sim::arch::GpuArch;
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};

    fn spec(n_species: usize, n_reactions: usize, n_qssa: usize, n_stiff: usize) -> ChemistrySpec {
        let m = synth::via_text(&synth::SynthConfig {
            name: "ctest".into(),
            n_species,
            n_reactions,
            n_qssa,
            n_stiff,
            seed: 77,
        });
        ChemistrySpec::build(&m)
    }

    fn check(kernel: &gpu_sim::isa::Kernel, s: &ChemistrySpec, arch: &GpuArch) {
        let points = kernel.points_per_cta * 2;
        let g = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, s.n_trans, 31);
        let expect = reference_chemistry(s, &g);
        let arrays = launch_arrays(&kernel.global_arrays, &g).expect("known arrays");
        let out = launch(kernel, arch, &LaunchInputs { arrays }, points, LaunchMode::Full).unwrap();
        // wdot values span many orders of magnitude and involve large
        // cancellations; compare with a relative tolerance plus a floor
        // scaled to the biggest output magnitude.
        let scale = expect.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1e-300);
        for sp in 0..s.n_trans {
            for p in 0..points {
                let got = out.outputs[ARR_OUT as usize][sp * points + p];
                let want = expect[sp * points + p];
                let tol = 1e-9 * (got.abs() + want.abs()) + 1e-9 * scale;
                assert!(
                    (got - want).abs() <= tol,
                    "species {sp} point {p}: got {got:e}, want {want:e}"
                );
            }
        }
    }

    #[test]
    fn baseline_matches_reference() {
        let s = spec(8, 14, 2, 2);
        let d = chemistry_dfg(&s, 4);
        let c =
            Compiler::new(&GpuArch::kepler_k20c())
            .options(CompileOptions::with_warps(2))
            .compile(&d, Variant::Baseline)
            .unwrap();
        check(&c.kernel, &s, &GpuArch::kepler_k20c());
    }

    #[test]
    fn warp_specialized_matches_reference_kepler() {
        let s = spec(8, 14, 2, 2);
        let d = chemistry_dfg(&s, 4);
        let mut opts = CompileOptions::with_warps(4);
        opts.placement = Placement::Buffer(96);
        opts.point_iters = 2;
        let c = Compiler::new(&GpuArch::kepler_k20c()).options(opts).compile(&d, Variant::WarpSpecialized).unwrap();
        check(&c.kernel, &s, &GpuArch::kepler_k20c());
    }

    #[test]
    fn warp_specialized_matches_reference_fermi() {
        let s = spec(6, 10, 2, 1);
        let d = chemistry_dfg(&s, 3);
        let mut opts = CompileOptions::with_warps(3);
        opts.placement = Placement::Buffer(96);
        let c = Compiler::new(&GpuArch::fermi_c2070()).options(opts).compile(&d, Variant::WarpSpecialized).unwrap();
        check(&c.kernel, &s, &GpuArch::fermi_c2070());
    }

    #[test]
    fn qssa_warps_are_siphoned() {
        assert_eq!(qssa_warp_count(8, 4), 2);
        assert_eq!(qssa_warp_count(8, 0), 0);
        assert_eq!(qssa_warp_count(2, 3), 1);
        let s = spec(8, 14, 2, 2);
        let d = chemistry_dfg(&s, 4);
        // QSSA ops pinned to the last warp(s).
        for op in d.ops.iter().filter(|o| o.name.starts_with("qssa")) {
            assert!(op.pinned_warp.unwrap() >= 3, "{:?}", op.pinned_warp);
        }
    }

    #[test]
    fn stiffness_uses_warp_indexed_rows() {
        let s = spec(8, 14, 2, 3);
        let d = chemistry_dfg(&s, 4);
        let stiff_ops: Vec<_> = d.ops.iter().filter(|o| o.name.starts_with("stiff")).collect();
        assert_eq!(stiff_ops.len(), 3);
        for op in stiff_ops {
            assert_eq!(op.irows.len(), 2, "diffusion + mole-frac rows (Listing 4)");
        }
    }

    #[test]
    fn rate_constant_counts_plausible() {
        // Paper §3.4: 6-15 double constants per reaction for the rate
        // models; our folded equilibrium constants add up to 15 more.
        let s = spec(10, 30, 0, 0);
        let d = chemistry_dfg(&s, 4);
        for op in d.ops.iter().filter(|o| o.name.starts_with("rate")) {
            assert!(op.consts.len() >= 3, "{}: {}", op.name, op.consts.len());
            assert!(op.consts.len() <= 33, "{}: {}", op.name, op.consts.len());
        }
    }
}
