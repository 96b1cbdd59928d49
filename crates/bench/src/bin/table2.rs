//! Regenerates Table II: empirical validation of the analysis (sound and
//! precise / sound but imprecise / unsound — §V).
//!
//! Every value-live fault site of each program is injected at every dynamic
//! occurrence; runs grouped by equivalence class must produce identical
//! traces. Unsound counts must be zero.
//!
//! ```text
//! cargo run -p bec-bench --release --bin table2
//! ```

use bec_core::report::format_table;
use bec_core::BecOptions;
use bec_sim::validate_program;

fn main() {
    let mut rows = Vec::new();
    let mut programs: Vec<(String, bec_ir::Program)> =
        vec![("motivating".into(), bec_bench::motivating_example())];
    for b in bec_suite::tiny() {
        programs.push((format!("{} (tiny)", b.name), b.compile().expect("compiles")));
    }
    let mut total_unsound = 0;
    let mut mismatches = Vec::new();
    for (name, program) in &programs {
        let r = validate_program(program, &BecOptions::paper());
        total_unsound += r.unsound + r.masked_violations;
        mismatches.extend(r.mismatches.iter().map(|m| format!("{name}: {m}")));
        rows.push(vec![
            name.clone(),
            r.runs.to_string(),
            r.sound_precise.to_string(),
            r.masked_confirmed.to_string(),
            r.imprecise_pairs.to_string(),
            (r.unsound + r.masked_violations).to_string(),
        ]);
    }

    println!("TABLE II: CLASSIFICATION OF COMPARISONS (per-program validation)\n");
    let headers =
        ["Program", "FI runs", "Sound precise", "Masked confirmed", "Sound imprecise", "Unsound"];
    print!("{}", format_table(&headers, &rows));
    println!("\nTotal unsound classifications: {total_unsound} (paper and reproduction: 0)");
    // Each mismatch names a replayable injection (func, point, reg, bit,
    // cycle): `bec sim <file> --fault <cycle>:<reg>:<bit>`.
    for m in &mismatches {
        println!("  {m}");
    }
    assert_eq!(total_unsound, 0, "the analysis must be empirically sound");
}
