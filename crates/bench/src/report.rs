//! Machine-readable experiment artifacts.
//!
//! Each `ext_*` experiment writes a flat `BENCH_<name>.json` at the
//! repository root next to its text tables, so CI can upload the headline
//! numbers as artifacts and runs can be diffed without scraping stdout.
//! The shape is deliberately trivial — one object, scalar values only:
//!
//! ```json
//! {"bench":"ext_observer_overhead","smoke":true,"reps":11,"messages":200000,
//!  "ns_per_msg":172.4,"budget_ns":500.0,"pass":true}
//! ```

use rjms_metrics::json::JsonWriter;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug)]
enum Field {
    Num(f64),
    Uint(u64),
    Text(String),
    Flag(bool),
}

/// Accumulates the headline numbers of one experiment run, then writes
/// them as `BENCH_<name>.json` at the repository root.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Field)>,
    started: Instant,
}

impl BenchReport {
    /// A new report for the experiment binary `name`. The construction
    /// time anchors the `wall_clock_s` provenance field, so create the
    /// report before the measured work starts.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_owned(), fields: Vec::new(), started: Instant::now() }
    }

    /// Adds a float field.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_owned(), Field::Num(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_owned(), Field::Uint(value)));
        self
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_owned(), Field::Text(value.to_owned())));
        self
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_owned(), Field::Flag(value)));
        self
    }

    /// The JSON text: `{"bench": <name>, <fields in insertion order>,
    /// <provenance fields>}`.
    ///
    /// Every artifact closes with three provenance fields so the perf
    /// trajectory stays attributable across PRs: `git_sha` (HEAD at run
    /// time, or `GITHUB_SHA`, or `"unknown"`), `unix_time` (seconds since
    /// the epoch) and `wall_clock_s` (elapsed since [`BenchReport::new`]).
    pub fn render(&self) -> String {
        JsonWriter::document(|w| {
            w.object(|w| {
                w.field("bench", &self.name);
                for (key, field) in &self.fields {
                    match field {
                        Field::Num(v) => w.field(key, *v),
                        Field::Uint(v) => w.field(key, *v),
                        Field::Text(v) => w.field(key, v),
                        Field::Flag(v) => w.field(key, *v),
                    }
                }
                w.field("git_sha", git_sha());
                let unix_time =
                    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
                w.field("unix_time", unix_time);
                w.field("wall_clock_s", self.started.elapsed().as_secs_f64());
            });
        })
    }

    /// Writes `BENCH_<name>.json` at the repository root and returns its
    /// path. Call this *before* any failure `exit(1)` so the artifact
    /// survives a gate trip.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        // crates/bench -> repository root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let root = root.canonicalize().unwrap_or(root);
        let path = root.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render() + "\n")?;
        Ok(path)
    }

    /// Writes the artifact and prints where it went; errors are reported
    /// to stderr and swallowed (an unwritable artifact must not fail the
    /// experiment itself).
    pub fn emit(&self) {
        match self.write() {
            Ok(path) => println!("bench artifact: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write BENCH_{}.json: {e}", self.name),
        }
    }
}

/// The commit the artifact was produced from: `git rev-parse HEAD`, then
/// the `GITHUB_SHA` CI variable, then `"unknown"` — never an error, a
/// missing sha must not fail an experiment.
fn git_sha() -> String {
    let from_git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_owned())
        .filter(|sha| !sha.is_empty());
    from_git
        .or_else(|| std::env::var("GITHUB_SHA").ok().filter(|sha| !sha.is_empty()))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object_in_insertion_order() {
        let mut r = BenchReport::new("ext_example");
        r.flag("smoke", true).num("overhead", 0.0125).uint("reps", 7).text("mode", "paired");
        let json = r.render();
        assert!(
            json.starts_with(
                "{\"bench\":\"ext_example\",\"smoke\":true,\"overhead\":0.0125,\
                 \"reps\":7,\"mode\":\"paired\","
            ),
            "user fields must lead in insertion order: {json}"
        );
    }

    #[test]
    fn every_artifact_carries_provenance() {
        let r = BenchReport::new("ext_example");
        let json = r.render();
        assert!(json.contains("\"git_sha\":\""), "missing git_sha: {json}");
        assert!(!json.contains("\"git_sha\":\"\""), "empty git_sha: {json}");
        assert!(json.contains("\"unix_time\":"), "missing unix_time: {json}");
        assert!(json.contains("\"wall_clock_s\":"), "missing wall_clock_s: {json}");
        // In a git checkout the sha must be the real HEAD, 40 hex chars.
        let sha = json.split("\"git_sha\":\"").nth(1).unwrap().split('"').next().unwrap();
        assert!(
            sha == "unknown" || (sha.len() == 40 && sha.chars().all(|c| c.is_ascii_hexdigit())),
            "implausible sha {sha:?}"
        );
    }

    #[test]
    fn write_lands_at_repo_root_and_round_trips() {
        let mut r = BenchReport::new("test_artifact_tmp");
        r.num("v", 1.5);
        let path = r.write().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\":\"test_artifact_tmp\""));
        assert!(path.parent().unwrap().join("Cargo.toml").exists(), "not at repo root: {path:?}");
        std::fs::remove_file(path).unwrap();
    }
}
