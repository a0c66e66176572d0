//! Run one benchmark instance and print it as one JSON line.
//!
//! ```text
//! lots-perfbench --workload <name> --seed <n> [--traced] [--smoke] [--spans <file>]
//! ```
//!
//! `--traced` runs every node through the span-recording wrapper;
//! `--spans` writes the recorded spans there as TSV. Exit code 0 means
//! the instance ran (its correctness is in the JSON), 2 a usage error,
//! 3 a panic inside the cluster (a node panic or the virtual-time
//! deadlock detector). `run.py` drives this binary; see `README.md`.

use std::io::Write;
use std::process::ExitCode;

use lots_perfbench::{peak_rss_mb, run_instance, trace, Instance, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("lots-perfbench: {msg}");
    eprintln!(
        "usage: lots-perfbench --workload <hot_object|sor_wide|churn_journal|sor_jiajia> \
         --seed <n> [--traced] [--smoke] [--spans <file>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut smoke, mut spans) =
        (None, None, false, false, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next(),
            "--spans" => spans = args.next(),
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(workload) = workload.as_deref().and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = seed.and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let inst = Instance {
        workload,
        seed,
        smoke,
        traced,
    };
    let Ok(out) = std::panic::catch_unwind(|| run_instance(inst)) else {
        eprintln!("lots-perfbench: {} panicked", workload.name());
        return ExitCode::from(3);
    };
    let rss = peak_rss_mb();
    if let (Some(path), Some(traces)) = (spans, &out.traces) {
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            trace::write_spans(&mut out, traces)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("lots-perfbench: writing spans to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", out.to_json(&inst, rss));
    ExitCode::SUCCESS
}
