//! The `gen --profile` ↔ checker contract: the well-formed profile checks completely
//! clean at any size, and each adversarial profile trips exactly its intended rule —
//! the seeded defect is the only defect.

use rprism_check::{check_trace, Severity};
use rprism_trace::testgen::{GenProfile, Rng};

#[test]
fn the_well_formed_profile_checks_clean_at_every_size() {
    for (seed, entries) in [(1u64, 8usize), (2, 16), (3, 64), (4, 500), (5, 5000)] {
        let trace = GenProfile::WellFormed.generate(&mut Rng::new(seed), entries);
        let report = check_trace(&trace);
        assert!(
            report.is_clean(),
            "seed {seed}, {entries} entries: {:#?}",
            report.diagnostics
        );
    }
}

#[test]
fn each_adversarial_profile_trips_exactly_its_rule() {
    let expectations = [
        (GenProfile::UnbalancedCall, "return-without-call"),
        (GenProfile::OrphanFork, "orphan-thread"),
        (GenProfile::UseAfterDeath, "use-after-death"),
        (GenProfile::RacyInterleaving, "data-race"),
    ];
    for (profile, rule) in expectations {
        for seed in [7u64, 8, 9] {
            let trace = profile.generate(&mut Rng::new(seed), 400);
            let report = check_trace(&trace);
            assert_eq!(
                report.diagnostics.len(),
                1,
                "{profile} (seed {seed}): expected the seeded defect alone, got {:#?}",
                report.diagnostics
            );
            assert_eq!(
                report.diagnostics[0].rule_id, rule,
                "{profile} (seed {seed})"
            );
            // Every adversarial profile must trip the default `--deny warning` gate
            // (the CI conformance job relies on a non-zero exit code).
            assert!(
                report.count_at_least(Severity::Warning) >= 1,
                "{profile} (seed {seed}) would pass a --deny warning gate"
            );
        }
    }
}

#[test]
fn adversarial_generation_is_deterministic() {
    for profile in [
        GenProfile::UnbalancedCall,
        GenProfile::OrphanFork,
        GenProfile::UseAfterDeath,
        GenProfile::RacyInterleaving,
    ] {
        let a = profile.generate(&mut Rng::new(11), 200);
        let b = profile.generate(&mut Rng::new(11), 200);
        assert_eq!(a, b, "{profile}");
    }
}
