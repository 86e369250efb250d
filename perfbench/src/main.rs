//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line saying where and how the run was taken, notes,
//! one `detail` line per metric only this workload has, one line per
//! metric of the result, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when every
//! operation passed its checks, 1 when one failed, 2 on a bad command
//! line.

use std::io::Write;
use std::process::ExitCode;

// Counts allocations for the traced runs' `alloc.*` metrics: one
// relaxed atomic add pair per allocation, paid by untraced runs too.
#[global_allocator]
static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "stamp {}", perfbench::stamp(&args));
    let _ = stdout.flush();
    let outcome = perfbench::run(&args);
    for note in &outcome.notes {
        let _ = writeln!(stdout, "note: {note}");
    }
    for m in &outcome.details {
        let _ = writeln!(stdout, "detail {:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.metrics {
        let _ = writeln!(stdout, "{:<43} {:>18} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(stdout, "{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
