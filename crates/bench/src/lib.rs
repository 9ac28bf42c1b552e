//! # anydb-bench
//!
//! Shared helpers for the figure-regeneration harnesses and ablation
//! benches. Each `benches/*.rs` target regenerates one figure (or one
//! ablation) of the paper and prints the same rows/series the paper
//! reports.

use std::time::Duration;

/// Prints a figure header with reproduction context.
pub fn figure_header(title: &str, notes: &str) {
    println!();
    println!("=== {title} ===");
    if !notes.is_empty() {
        println!("{notes}");
    }
    println!("host: {} logical cores", num_cpus_snapshot());
    println!();
}

/// Logical CPU count without extra dependencies.
pub fn num_cpus_snapshot() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a throughput as M tx/s with two decimals.
pub fn mtps(v: f64) -> String {
    format!("{:.2}", v / 1e6)
}

/// Prints one table row with `|`-separated, width-padded cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Median of a sample set — what the repeated-run benches report, to
/// filter scheduler noise on the small CI host.
///
/// # Panics
/// Panics on an empty or NaN-containing sample set.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v[v.len() / 2]
}

/// Writes a flat `{"key": number, ...}` JSON file — the format
/// `tools/bench_gate.rs` parses. Shared by every JSON-emitting ablation.
///
/// # Panics
/// Panics if the file cannot be created or written (a bench host problem
/// worth failing loudly on).
pub fn write_flat_json(path: &std::path::Path, pairs: &[(String, f64)]) {
    use std::io::Write;
    let mut f =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    writeln!(f, "{{").unwrap();
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        writeln!(f, "  \"{k}\": {v:.4}{comma}").unwrap();
    }
    writeln!(f, "}}").unwrap();
}

/// Resolves where a bench writes its JSON: the `env_var` override when
/// set (local experiments), else `file_name` at the root of the
/// workspace the bench runs in (where CI's bench gate and artifact
/// upload expect it).
///
/// The root is found at run time from the current directory (cargo runs
/// benches from their package directory), so a copied tree that reuses
/// another checkout's build writes into its own root.
pub fn bench_json_path(env_var: &str, file_name: &str) -> std::path::PathBuf {
    std::env::var(env_var).map_or_else(
        |_| {
            let cwd = std::env::current_dir().expect("current directory is readable");
            workspace_root(&cwd).join(file_name)
        },
        std::path::PathBuf::from,
    )
}

/// The nearest directory at or above `from` whose `Cargo.toml` declares
/// a `[workspace]`; `from` itself when there is none.
fn workspace_root(from: &std::path::Path) -> std::path::PathBuf {
    from.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .unwrap_or(from)
        .to_path_buf()
}

/// Measures wall-clock host parallel efficiency: ratio of 2-thread to
/// 1-thread throughput of a memory-touching loop. Documents why the OLTP
/// figures run in virtual time (DESIGN.md §2).
pub fn host_scaling_probe() -> f64 {
    use std::time::Instant;
    fn burn(ms_budget: u64) -> u64 {
        let start = Instant::now();
        let mut v = vec![0u64; 1 << 16];
        let mut i = 0u64;
        let mut n = 0u64;
        while start.elapsed() < Duration::from_millis(ms_budget) {
            for _ in 0..4096 {
                let idx = (i.wrapping_mul(0x9e3779b97f4a7c15) >> 48) as usize & 0xFFFF;
                v[idx] = v[idx].wrapping_add(i);
                i += 1;
            }
            n += 4096;
        }
        std::hint::black_box(&v);
        n
    }
    let solo = burn(150);
    let t1 = std::thread::spawn(|| burn(150));
    let t2 = std::thread::spawn(|| burn(150));
    let pair = t1.join().unwrap() + t2.join().unwrap();
    pair as f64 / solo as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(12)), "12.00");
        assert_eq!(mtps(2_500_000.0), "2.50");
    }

    #[test]
    fn workspace_root_is_found_from_a_member_directory() {
        let tmp = std::env::temp_dir().join(format!("anydb-bench-root-{}", std::process::id()));
        let member = tmp.join("crates/bench");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(member.join("Cargo.toml"), "[package]\nname = \"x\"\n").unwrap();
        assert_eq!(workspace_root(&member), tmp);
        assert_eq!(workspace_root(&tmp), tmp);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn scaling_probe_reports_sane_ratio() {
        let r = host_scaling_probe();
        assert!(r > 0.3 && r < 4.0, "ratio {r}");
    }
}
