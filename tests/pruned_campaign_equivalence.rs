//! Use case 1 ground truth: a BEC-pruned fault-injection campaign must
//! reach the same verdict for every pruned run as the full inject-on-read
//! campaign — "without loss of coverage or accuracy" (§III-A).
//!
//! For every value-live fault run the campaign would skip, the outcome must
//! be reconstructible: masked runs behave like the golden run, and
//! inferrable runs behave exactly like their class representative. That is
//! the §V validation ([`bec_sim::validate_program`]), which injects every
//! value-live site bit at every occurrence and groups the runs by
//! (function, class, occurrence).

use bec_core::BecOptions;
use bec_sim::validate_program;

fn check_program(program: &bec_ir::Program) {
    let report = validate_program(program, &BecOptions::paper());
    assert!(report.runs > 0, "no value-live fault site was injected");
    assert!(report.is_sound(), "pruning would lose accuracy: {:?}", report.mismatches);
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_the_motivating_example() {
    check_program(&bec::motivating_example());
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_crc32() {
    let b = bec_suite::crc32::scaled(1);
    check_program(&b.compile().unwrap());
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_rsa() {
    let b = bec_suite::rsa::scaled(3233, 65, 7);
    check_program(&b.compile().unwrap());
}
