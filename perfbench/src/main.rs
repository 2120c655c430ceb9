//! `vdm-perfbench --workload <paging|adhoc|htap> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, then the provenance record, then
//! one JSON result line. Exits 1 when a correctness check fails.

use vdm_perfbench::workloads::{Config, Workload};

const USAGE: &str =
    "usage: vdm-perfbench --workload <paging|adhoc|htap> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("paging, adhoc or htap"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Config::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = vdm_perfbench::run(&cfg).unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    });
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", outcome.record);
    println!(
        "{}",
        vdm_perfbench::report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
