//! Where and on what a result was measured, and the files results go to.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::Command;

use berkmin::telemetry::json::Value;

/// Commit, date, toolchain and machine of a run.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub date: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
    /// FNV-1a hash of the benchmark executable: runs of the same build
    /// share it.
    pub build: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let build = std::env::current_exe().and_then(fs::read).map_or_else(
            |_| "unknown".to_string(),
            |bytes| format!("{:016x}", fnv1a(&bytes)),
        );
        Provenance {
            // Only a checkout that is itself a git repository is asked, so
            // that git never walks up into an enclosing repository.
            commit: std::env::var("PERFBENCH_COMMIT")
                .ok()
                .or_else(|| {
                    Path::new(".git")
                        .exists()
                        .then(|| command_output("git", &["rev-parse", "HEAD"]))
                        .flatten()
                })
                .unwrap_or_else(|| "unknown".into()),
            date: iso_date(secs),
            rustc: command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            build,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("commit".into(), Value::Str(self.commit.clone())),
            ("date".into(), Value::Str(self.date.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("nproc".into(), Value::Int(self.nproc as u64)),
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("build".into(), Value::Str(self.build.clone())),
        ])
    }
}

/// Runs a short command to completion and returns its trimmed standard
/// output, or `None` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (proleptic Gregorian, UTC).
pub fn iso_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    // Days-to-civil conversion (era-based, valid for all dates after 1970).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of a pass's per-call verdicts and search counters.
pub fn fingerprint(keys: &[String]) -> u64 {
    fnv1a(keys.join("\n").as_bytes())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The determinism gate across runs: a run of the same build on the same
/// workload and seed must reproduce the per-call search counters of every
/// earlier run recorded in `dir/counters.jsonl`. Records this run too.
pub fn check_counters(
    dir: &str,
    prov: &Provenance,
    workload: &str,
    seed: u64,
    fingerprint: u64,
) -> Result<(), String> {
    let file = Path::new(dir).join("counters.jsonl");
    let ours = format!("{:016x}", fingerprint);
    let earlier = fs::read_to_string(&file).unwrap_or_default();
    for line in earlier.lines() {
        let Ok(rec) = berkmin::telemetry::json::parse(line) else {
            continue;
        };
        let field = |k: &str| rec.get(k).and_then(Value::as_str).map(str::to_string);
        let same_run = field("build").as_deref() == Some(prov.build.as_str())
            && field("workload").as_deref() == Some(workload)
            && rec.get("seed").and_then(Value::as_u64) == Some(seed);
        if same_run && field("fingerprint").as_deref() != Some(ours.as_str()) {
            return Err(format!(
                "search counters differ from an earlier run of this build on {workload} seed {seed} \
                 (fingerprint {ours} vs {})",
                field("fingerprint").unwrap_or_default()
            ));
        }
    }
    let rec = Value::Object(vec![
        ("build".into(), Value::Str(prov.build.clone())),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::Int(seed)),
        ("fingerprint".into(), Value::Str(ours)),
    ]);
    append(dir, "counters.jsonl", &(rec.render() + "\n"))
}

pub fn append(dir: &str, name: &str, text: &str) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = Path::new(dir).join(name);
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn write(dir: &str, name: &str, text: &str) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = Path::new(dir).join(name);
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_dates() {
        assert_eq!(iso_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_date(1_700_000_000), "2023-11-14T22:13:20Z");
    }

    #[test]
    fn counters_gate_rejects_a_different_fingerprint_for_the_same_build() {
        let dir = format!(
            "{}/results/gate-test-{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        );
        let dir = dir.as_str();
        let prov = Provenance {
            commit: "c".into(),
            date: "d".into(),
            rustc: "r".into(),
            nproc: 1,
            cpu: "x".into(),
            build: "b1".into(),
        };
        assert!(check_counters(dir, &prov, "w", 1, 42).is_ok());
        assert!(check_counters(dir, &prov, "w", 1, 42).is_ok());
        assert!(check_counters(dir, &prov, "w", 2, 7).is_ok());
        assert!(check_counters(dir, &prov, "w", 1, 43).is_err());
        let other = Provenance {
            build: "b2".into(),
            ..prov
        };
        assert!(check_counters(dir, &other, "w", 1, 43).is_ok());
        fs::remove_dir_all(dir).unwrap();
    }
}
