//! Golden figures: the `fig4 --small` and `fig6 --small` tables, their
//! simulated cycle totals, and every row's `f64` bits, pinned byte for
//! byte.
//!
//! Every number is simulated (cycles at a modelled fabric clock), so
//! these bytes only move when the modelled hardware moves. A host-side
//! refactor of the simulator, the core harness or a kernel's tick loop
//! must leave them untouched; a change that means to move them must
//! regenerate the constants and `results/` in the same commit and say
//! why. `parallel_equivalence` compares serial with parallel runs inside
//! one build; this test compares one build with the last.

use bbench::{fig4, fig6};

/// `fig4 --small` stdout.
const FIG4_SMALL: &str = "\
Figure 4: Memcpy bandwidth on the simulated AWS F1 platform (GB/s copied)

size                          4KiB       32KiB
Pure-HDL                      4.18        7.48
Beethoven                     4.18        9.24
Beethoven (No-TLP)            4.18        7.58
HLS                           4.69        5.94
Beethoven (16-beat)           6.28        8.58

Lines of code (paper, §III-A): implementation + config/pragmas
  Pure-HDL      470 + 0
  Beethoven      23 + 16
  HLS             4 + 2
";

/// `fig6 --small` stdout.
const FIG6_SMALL: &str = "\
Figure 6: MachSuite speedup over Vitis HLS (cores on measured bars)

benchmark           HLS    Spatial  Beethoven(1c)   Beethoven(Ideal)  Beethoven(Measured)
----------------------------------------------------------------------------------------
GeMM               1.00       0.50           0.32               1.30              1.23[4]
NW                 1.00       0.67           1.47               5.89              5.22[4]
Stencil2D          1.00       0.50           0.65               2.58              2.15[4]
Stencil3D          1.00       0.50           0.45               1.80              1.04[4]
MD-KNN             1.00       0.50           0.23               0.91              0.52[4]

Absolute throughput (invocations/s):
  GeMM         HLS     120948.2  Spatial      60474.1  Beethoven-measured     148654.7
  NW           HLS      61035.2  Spatial      40690.1  Beethoven-measured     318369.9
  Stencil2D    HLS     214776.6  Spatial     107388.3  Beethoven-measured     462320.9
  Stencil3D    HLS     482625.5  Spatial     241312.7  Beethoven-measured     500000.0
  MD-KNN       HLS     957854.4  Spatial     478927.2  Beethoven-measured     500000.0
";

/// Simulated fabric cycles behind each table.
const FIG4_SMALL_CYCLES: u64 = 8_113;
const FIG6_SMALL_CYCLES: u64 = 66_643;

/// `(label, [(bytes, GB/s bits)])` for every Figure 4 row.
const FIG4_SMALL_BITS: &[(&str, &[(u64, u64)])] = &[
    (
        "Pure-HDL",
        &[
            (0x1000, 0x4010_b7e6_ec25_9dc8),
            (0x8000, 0x401d_ecd4_4801_decd),
        ],
    ),
    (
        "Beethoven",
        &[
            (0x1000, 0x4010_b7e6_ec25_9dc8),
            (0x8000, 0x4022_78a3_eeae_e650),
        ],
    ),
    (
        "Beethoven (No-TLP)",
        &[
            (0x1000, 0x4010_b7e6_ec25_9dc8),
            (0x8000, 0x401e_500b_5e04_4343),
        ],
    ),
    (
        "HLS",
        &[
            (0x1000, 0x4012_bef9_8e5a_3711),
            (0x8000, 0x4017_beb3_922e_017c),
        ],
    ),
    (
        "Beethoven (16-beat)",
        &[
            (0x1000, 0x4019_20fb_49d0_e22a),
            (0x8000, 0x4021_27f0_fd0d_2294),
        ],
    ),
];

/// `(benchmark, n_cores, [hls, spatial, 1-core, ideal, measured] bits)`
/// for every Figure 6 row.
const FIG6_SMALL_BITS: &[(&str, usize, [u64; 5])] = &[
    (
        "GeMM",
        4,
        [
            0x40fd_8743_bf1a_21f0,
            0x40ed_8743_bf1a_21f0,
            0x40e3_2b59_6833_7512,
            0x4103_2b59_6833_7512,
            0x4102_2575_66c9_c551,
        ],
    ),
    (
        "NW",
        4,
        [
            0x40ed_cd64_ffff_ffff,
            0x40e3_de43_5555_5555,
            0x40f5_f076_859c_fc80,
            0x4115_f076_859c_fc80,
            0x4113_6e87_c894_024a,
        ],
    ),
    (
        "Stencil2D",
        4,
        [
            0x410a_37c5_0ef4_9046,
            0x40fa_37c5_0ef4_9046,
            0x4100_eaa7_733a_7735,
            0x4120_eaa7_733a_7735,
            0x411c_37c3_6716_21db,
        ],
    ),
    (
        "Stencil3D",
        4,
        [
            0x411d_7505_ee35_5fe1,
            0x410d_7505_ee35_5fe1,
            0x410a_7daf_1c71_c71d,
            0x412a_7daf_1c71_c71d,
            0x411e_8480_0000_0002,
        ],
    ),
    (
        "MD-KNN",
        4,
        [
            0x412d_3b3c_cff0_4e77,
            0x411d_3b3c_cff0_4e77,
            0x410a_7daf_1c71_c71e,
            0x412a_7daf_1c71_c71e,
            0x411e_8480_0000_0002,
        ],
    ),
];

#[test]
fn fig4_small_table_is_pinned() {
    let (rows, cycles) = fig4::run_timed_on(&fig4::small_sizes(), 1);
    let bits: Vec<(&str, Vec<(u64, u64)>)> = rows
        .iter()
        .map(|r| {
            let series = r.series.iter().map(|&(b, g)| (b, g.to_bits())).collect();
            (r.label, series)
        })
        .collect();
    let pinned: Vec<(&str, Vec<(u64, u64)>)> = FIG4_SMALL_BITS
        .iter()
        .map(|&(label, series)| (label, series.to_vec()))
        .collect();
    assert_eq!(fig4::render(&rows), FIG4_SMALL);
    assert_eq!(cycles, FIG4_SMALL_CYCLES, "fig4 simulated cycles moved");
    assert_eq!(bits, pinned, "fig4 row bits moved");
}

#[test]
fn fig6_small_table_is_pinned() {
    let (rows, cycles) = fig6::run_timed_on(&fig6::Fig6Scale::small(), 1);
    let bits: Vec<(&str, usize, [u64; 5])> = rows
        .iter()
        .map(|r| {
            let values = [r.hls, r.spatial, r.beethoven_1core, r.ideal, r.measured];
            (r.bench.name(), r.n_cores, values.map(f64::to_bits))
        })
        .collect();
    assert_eq!(fig6::render(&rows), FIG6_SMALL);
    assert_eq!(cycles, FIG6_SMALL_CYCLES, "fig6 simulated cycles moved");
    assert_eq!(bits, FIG6_SMALL_BITS, "fig6 row bits moved");
}
