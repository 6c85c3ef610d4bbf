//! Integration tests of every experiment's *shape claims*: the orderings
//! and magnitudes the paper reports must emerge from our models (absolute
//! values are model-calibrated; the relations are the reproduction).

use csfma_bench::{fig13, fig14, fig15, table1, table2};

#[test]
fn table1_orderings() {
    let rows = table1();
    let by_name: std::collections::HashMap<_, _> = rows.iter().map(|r| (r.name, r)).collect();
    let coregen = by_name["Xilinx CoreGen"];
    let flopoco = by_name["FloPoCo FPPipeline"];
    let pcs = by_name["PCS-FMA"];
    let fcs = by_name["FCS-FMA"];

    // exact matches: cycles and DSPs
    assert_eq!((coregen.cycles, coregen.dsps), (9, 13));
    assert_eq!((flopoco.cycles, flopoco.dsps), (11, 7));
    assert_eq!((pcs.cycles, pcs.dsps), (5, 21));
    assert_eq!((fcs.cycles, fcs.dsps), (3, 12));

    // every unit but FloPoCo clears the 200 MHz constraint
    assert!(flopoco.fmax_mhz < 200.0);
    for r in [coregen, pcs, fcs] {
        assert!(r.fmax_mhz >= 200.0, "{}: {:.0}", r.name, r.fmax_mhz);
    }
    // area ordering: FloPoCo smallest DSP use; our units LUT-heaviest;
    // FCS cheaper than PCS thanks to the pre-adders
    assert!(pcs.luts > coregen.luts && pcs.luts > flopoco.luts);
    assert!(fcs.luts < pcs.luts);
}

#[test]
fn fig13_speedups() {
    let rows = fig13();
    let best_competitor = rows[0].1.min(rows[1].1);
    let pcs = best_competitor / rows[2].1;
    let fcs = best_competitor / rows[3].1;
    // paper: "about 1.7x and 2.5x faster than their closest competitor"
    assert!((1.5..2.0).contains(&pcs), "PCS speedup {pcs:.2}");
    assert!((2.2..2.9).contains(&fcs), "FCS speedup {fcs:.2}");
}

#[test]
fn fig14_accuracy_ordering() {
    let rows = fig14(8, 48, 99);
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name.starts_with(name))
            .unwrap_or_else(|| panic!("row {name}"))
            .avg_ulp
    };
    let d64 = get("CoreGen 64b");
    let d68 = get("CoreGen 68b");
    let golden = get("CoreGen 75b");
    // wider formats are strictly better, golden is near-exact
    assert!(d68 < d64 && golden < d68);
    // both of the paper's units clearly outperform standard double
    for name in ["PCS-FMA (ZD)", "PCS-FMA (early LZA)", "FCS-FMA"] {
        let e = get(name);
        assert!(e < d64 / 5.0, "{name}: {e} vs 64b {d64}");
    }
}

#[test]
fn table2_energy_ordering() {
    let rows = table2(400, 7);
    let x = rows[0].1;
    let flopoco = rows[1].1;
    let pcs = rows[2].1;
    let fcs = rows[3].1;
    // calibration anchor and shape: "a 4x to 5x increase in energy"
    assert!((0.4..0.7).contains(&x), "CoreGen anchor {x:.2} nJ");
    assert!(flopoco > x && flopoco < pcs);
    assert!(pcs / x > 3.5 && pcs / x < 6.0, "PCS ratio {:.1}", pcs / x);
    assert!(fcs / x > 3.5 && fcs / x < 6.0, "FCS ratio {:.1}", fcs / x);
    assert!(fcs < pcs, "pre-adders make FCS cheaper");
}

#[test]
fn fig15_schedule_reductions() {
    let rows = fig15();
    // EXPERIMENTS.md's Fig. 15 table exactly: ASAP cycles (discrete, PCS,
    // FCS) per solver, i.e. 22.6-25.7 % (PCS) and 37.3-42.7 % (FCS)
    // shorter against the paper's 26.0-50.1 %, and the FMAs each kind
    // inserts
    let lengths: Vec<[u32; 3]> = rows.iter().map(|r| [r.discrete, r.pcs, r.fcs]).collect();
    assert_eq!(lengths, [[177, 137, 111], [353, 265, 207], [529, 393, 303]]);
    let fmas: Vec<(usize, usize)> = rows.iter().map(|r| r.fma_nodes).collect();
    assert_eq!(fmas, [(62, 62), (126, 126), (190, 190)]);
    for r in &rows {
        assert!(
            r.fma_units.0 <= 39 && r.fma_units.1 <= 39,
            "paper used up to 39 units"
        );
    }
}

#[test]
fn fig15_area_supports_selective_use_conclusion() {
    // the paper's conclusion: "these benefits come at the cost of
    // increased area ... a selective use is recommended" — the fused
    // operator pools must cost several times the discrete ones
    let rows = fig15();
    for r in &rows {
        assert!(
            r.pcs_area.luts > 3 * r.discrete_area.luts,
            "{}: PCS pool {} vs discrete {}",
            r.solver,
            r.pcs_area.luts,
            r.discrete_area.luts
        );
        assert!(
            r.fcs_area.luts < r.pcs_area.luts,
            "{}: pre-adders keep the FCS pool smaller",
            r.solver
        );
        assert!(
            r.fcs_area.dsps <= r.pcs_area.dsps,
            "{}: FCS uses fewer DSPs per unit",
            r.solver
        );
    }
}
