//! Command line of the benchmark:
//!
//! ```text
//! anydb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>]
//! ```
//!
//! Prints a line per metric, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A report with every
//! figure, the host descriptors and (traced) the spans is written under
//! `--out-dir`, by default `.bench_out` in the current directory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use anydb_perfbench::host;
use anydb_perfbench::json::Json;
use anydb_perfbench::run::{run, Measure, Outcome, RunConfig, Scale, Workload};

struct Args {
    cfg: RunConfig,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: anydb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    // Resolved when the benchmark runs, never at build time: a binary
    // built in one checkout writes into the directory it runs in.
    let mut out_dir = std::env::current_dir()
        .map_err(|e| format!("no current directory: {e}"))?
        .join(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        cfg: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            duration: seconds.ok_or("--seconds is required")?,
            trace,
            scale: Scale::Full,
        },
        out_dir,
    })
}

fn metrics_json(ms: &[Measure]) -> Json {
    Json::obj(ms.iter().map(|mm| {
        (
            mm.name,
            Json::obj([("value", Json::Num(mm.value)), ("unit", Json::str(mm.unit))]),
        )
    }))
}

fn write_report(args: &Args, out: &Outcome, descriptors: &[(String, Json)]) -> Result<(), String> {
    let cfg = &args.cfg;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let totals = out.tracer.totals();
    let report = Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.duration.as_secs_f64())),
        ("trace", Json::Bool(cfg.trace)),
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("end_to_end", metrics_json(&out.end_to_end)),
        ("detail", metrics_json(&out.detail)),
        ("per_layer", metrics_json(&out.layers)),
        ("descriptors", Json::Obj(descriptors.to_vec())),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        (
            "span_totals",
            Json::obj(totals.iter().map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("spans", Json::Int(t.spans)),
                        ("count", Json::Int(t.count)),
                        ("total_ns", Json::Int(t.total_ns)),
                        ("self_ns", Json::Int(t.self_ns)),
                    ]),
                )
            })),
        ),
    ]);
    let path = args.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{report}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if cfg.trace {
        // One span per line: [id, parent, name, start_ns, end_ns, count].
        let mut dump = String::new();
        for (id, s) in out.tracer.spans().iter().enumerate() {
            let parent = s
                .parent
                .map_or(Json::Num(f64::NAN), |p| Json::Int(p as u64));
            let row = Json::Arr(vec![
                Json::Int(id as u64),
                parent,
                Json::str(s.name),
                Json::Int(s.start_ns),
                Json::Int(s.end_ns),
                Json::Int(s.count),
            ]);
            dump.push_str(&format!("{row}\n"));
        }
        let path = args.out_dir.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, dump).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cpu_before = host::cpu_times();
    let out = match run(&args.cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal = host::steal_share(cpu_before, host::cpu_times());
    let mut descriptors = vec![
        ("nproc".to_string(), Json::Int(host::nproc() as u64)),
        (
            "steal_share".to_string(),
            steal.map_or(Json::Num(f64::NAN), Json::Num),
        ),
    ];
    descriptors.extend(out.descriptors.iter().cloned());

    let cfg = &args.cfg;
    println!(
        "# {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.duration.as_secs_f64(),
        u8::from(cfg.trace)
    );
    for (k, v) in &descriptors {
        println!("# {k} = {v}");
    }
    for p in &out.problems {
        println!("# ORACLE FAILED: {p}");
    }
    for mm in out.end_to_end.iter().chain(&out.detail).chain(&out.layers) {
        println!("{:<36} {:>16.4} {}", mm.name, mm.value, mm.unit);
    }
    if let Err(e) = write_report(&args, &out, &descriptors) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let metrics = if cfg.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    let last = Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{last}");
    ExitCode::SUCCESS
}
