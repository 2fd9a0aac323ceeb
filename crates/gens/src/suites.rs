//! Laptop-scale reconstructions of the paper's 12 benchmark classes.
//!
//! The original files (SATLIB, Velev's CMU suite, the Beijing set) are
//! 2001-era artifacts we cannot download; every class is regenerated from
//! the same problem family at a size where the full ablation grid of
//! Tables 1–7 runs in minutes. `berkmin-bench calibrate` times every class
//! at these sizes (see README, "Reproducing the paper").

use crate::{
    beijing, blocksworld, bmc_gen, hanoi, hole, ksat, miters, parity, pipeline, BenchInstance,
};

/// The paper's benchmark classes, in the row order of Tables 1/2/4/5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperClass {
    /// DIMACS pigeonhole (UNSAT).
    Hole,
    /// Blocks-world planning (SAT).
    Blocksworld,
    /// Parity-function learning (SAT).
    Par16,
    /// Superscalar-suite, first release (mostly UNSAT, easy).
    Sss10,
    /// Superscalar-suite, revision a (mixed, easy).
    Sss10a,
    /// Superscalar-suite, satisfiable release.
    SssSat10,
    /// Formally-verified-pipeline suite 1.0 (UNSAT).
    FvpUnsat10,
    /// VLIW processor, satisfiable.
    VliwSat10,
    /// The Beijing adder/CSP set (mostly SAT).
    Beijing,
    /// Towers of Hanoi planning (SAT).
    Hanoi,
    /// Equivalence miters of artificial circuits (UNSAT).
    Miters,
    /// Formally-verified-pipeline suite 2.0 (`Npipe`, UNSAT).
    FvpUnsat20,
}

impl PaperClass {
    /// The class name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PaperClass::Hole => "Hole",
            PaperClass::Blocksworld => "Blocksworld",
            PaperClass::Par16 => "Par16",
            PaperClass::Sss10 => "Sss1.0",
            PaperClass::Sss10a => "Sss1.0a",
            PaperClass::SssSat10 => "Sss_sat1.0",
            PaperClass::FvpUnsat10 => "Fvp_unsat1.0",
            PaperClass::VliwSat10 => "Vliw_sat1.0",
            PaperClass::Beijing => "Beijing",
            PaperClass::Hanoi => "Hanoi",
            PaperClass::Miters => "Miters",
            PaperClass::FvpUnsat20 => "Fvp_unsat2.0",
        }
    }
}

/// All 12 classes in the row order of the ablation tables (Tables 1/2/4/5).
pub const ABLATION_ORDER: [PaperClass; 12] = [
    PaperClass::Hole,
    PaperClass::Blocksworld,
    PaperClass::Par16,
    PaperClass::Sss10,
    PaperClass::Sss10a,
    PaperClass::SssSat10,
    PaperClass::FvpUnsat10,
    PaperClass::VliwSat10,
    PaperClass::Beijing,
    PaperClass::Hanoi,
    PaperClass::Miters,
    PaperClass::FvpUnsat20,
];

/// Generates the laptop-scale instance suite for a class.
///
/// Sizes are calibrated (with `berkmin-bench calibrate`) so the full BerkMin
/// configuration finishes each class in seconds while crippled ablation
/// arms show the paper's slowdowns and aborts.
pub fn class_suite(class: PaperClass) -> Vec<BenchInstance> {
    match class {
        PaperClass::Hole => (6..=9).map(hole::pigeonhole).collect(),
        PaperClass::Blocksworld => vec![
            blocksworld::blocksworld(6, 8, 0),
            blocksworld::blocksworld_tight(7, 10, 1),
            blocksworld::blocksworld_tight(7, 10, 2),
            blocksworld::blocksworld_tight_unsat(7, 10, 1),
        ],
        PaperClass::Par16 => vec![
            parity::parity_learning(16, 30, 0),
            parity::parity_learning(24, 26, 1),
            parity::parity_learning(28, 30, 2),
            parity::parity_learning(32, 34, 3),
        ],
        PaperClass::Sss10 => {
            let mut v = Vec::new();
            for seed in 0..4 {
                v.push(pipeline::sss_check(4, false, seed));
                v.push(pipeline::sss_check(5, true, seed));
            }
            v
        }
        PaperClass::Sss10a => (0..4)
            .map(|seed| pipeline::sss_check(6, seed % 2 == 1, 10 + seed))
            .collect(),
        PaperClass::SssSat10 => (0..4)
            .map(|seed| pipeline::sss_check(6 + seed as usize % 3, true, 20 + seed))
            .collect(),
        PaperClass::FvpUnsat10 => {
            vec![
                pipeline::npipe(3),
                pipeline::npipe_ooo(3),
                pipeline::npipe(4),
            ]
        }
        PaperClass::VliwSat10 => {
            let mut v: Vec<BenchInstance> =
                (0..2).map(|seed| pipeline::vliw_sat(16, seed)).collect();
            v.push(miters::buggy_miter(900, 60, 3));
            v
        }
        PaperClass::Beijing => vec![
            beijing::adder_goal(16, 2, 0),
            beijing::chained_adder_goal(12, 0),
            beijing::adder_unsat(24),
            beijing::factor_semiprime(12, 0),
            beijing::factor_prime(12, 0),
        ],
        PaperClass::Hanoi => vec![hanoi::hanoi(5), hanoi::hanoi(6), hanoi::hanoi_unsat(6)],
        PaperClass::Miters => vec![
            miters::equivalent_miter(1500, 60, 0),
            miters::multiplier_miter(6, 0),
            miters::rect_multiplier_miter(6, 7, 0),
        ],
        PaperClass::FvpUnsat20 => vec![pipeline::npipe(4), pipeline::npipe(5)],
    }
}

/// The SAT-2002 final-stage analog suite (Table 10): one instance per row
/// of the paper's table, mapped to the closest generator family. Returns
/// `(family, instance)` pairs in the paper's row order.
pub fn sat2002_suite() -> Vec<(&'static str, BenchInstance)> {
    vec![
        ("Bmc2", bmc_gen::bmc_counter_enable(7)),
        ("Comb", miters::multiplier_miter(6, 2)),
        ("Comb", miters::rect_multiplier_miter(6, 7, 3)),
        ("Dinphil", hole::pigeonhole(10)),
        ("F2clk", bmc_gen::bmc_f2clk(6)),
        ("Fifo", bmc_gen::bmc_fifo(24, 64)),
        ("Fifo", bmc_gen::bmc_fifo(32, 80)),
        ("Fvp-unsat-2.0", pipeline::npipe(4)),
        ("Fvp-unsat-2.0", pipeline::npipe_ooo(4)),
        ("Fvp-unsat-2.0", pipeline::npipe(5)),
        ("Ip", miters::wallace_vs_array_miter(6)),
        ("Ip", miters::rect_multiplier_miter(5, 7, 50)),
        ("Ip", miters::wallace_vs_array_miter(7)),
        ("Satex-challenges", ksat::planted_ksat(120, 1100, 4, 1)),
        ("Satex-challenges", parity::parity_learning(28, 30, 9)),
        ("W08", hanoi::hanoi(7)),
        ("W08", blocksworld::blocksworld(7, 10, 15)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_generates_nonempty_suites() {
        for class in ABLATION_ORDER {
            let suite = class_suite(class);
            assert!(!suite.is_empty(), "{} suite is empty", class.name());
            for inst in &suite {
                assert!(inst.cnf.num_clauses() > 0, "{} has empty CNF", inst.name);
            }
        }
    }

    #[test]
    fn class_names_match_table_rows() {
        let names: Vec<&str> = ABLATION_ORDER.iter().map(|c| c.name()).collect();
        assert_eq!(names[0], "Hole");
        assert_eq!(names[11], "Fvp_unsat2.0");
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn sat2002_suite_has_seventeen_rows() {
        // Mirrors the 17 solved-instance rows of Table 10.
        assert_eq!(sat2002_suite().len(), 17);
    }

    #[test]
    fn expected_verdicts_cover_both_polarities() {
        let suite = sat2002_suite();
        let sat = suite
            .iter()
            .filter(|(_, i)| i.expected == Some(true))
            .count();
        let unsat = suite
            .iter()
            .filter(|(_, i)| i.expected == Some(false))
            .count();
        assert!(sat >= 5, "need satisfiable rows, got {sat}");
        assert!(unsat >= 8, "need unsatisfiable rows, got {unsat}");
    }
}
