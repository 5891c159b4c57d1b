//! Run provenance: who produced a stream, from what inputs, on what toolchain.
//!
//! Provenance is inherently host- and configuration-dependent (thread count,
//! git revision, rustc version), so it lives on a dedicated `"type":"meta"`
//! line that is *excluded* from the byte-identity determinism contract. The
//! event stream after the meta line must be identical across engines and
//! thread counts; the meta line is allowed to differ.

use crate::event::push_str;
use crate::event::SCHEMA_VERSION;
use std::process::Command;

/// Facts about a recorded run, stamped on JSONL meta lines and CSV headers.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// JSONL schema version the stream conforms to.
    pub schema: u32,
    /// Simulator / workload seed, when one drives the run.
    pub seed: Option<u64>,
    /// Worker threads configured for the parallel engine.
    pub threads: Option<usize>,
    /// Graph shape `(nodes, edges, max_degree)` of the main workload.
    pub graph: Option<(usize, usize, usize)>,
    /// Per-shard node counts of the parallel engine's static cuts.
    pub shards: Option<Vec<usize>>,
    /// The checkout's abbreviated commit id, suffixed `-dirty` when
    /// tracked files differ from it (`git describe --always --dirty`),
    /// or `"unknown"`.
    pub git_rev: String,
    /// `rustc -V`, or `"unknown"`.
    pub rustc: String,
    /// Version of this crate (and the workspace).
    pub crate_version: String,
}

impl Provenance {
    /// Captures toolchain facts from the environment. Never fails: anything
    /// unavailable becomes `"unknown"`.
    pub fn capture() -> Self {
        Provenance {
            schema: SCHEMA_VERSION,
            seed: None,
            threads: None,
            graph: None,
            shards: None,
            git_rev: command_line("git", &["describe", "--always", "--dirty", "--exclude=*"]),
            rustc: command_line("rustc", &["-V"]),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the configured thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the workload graph shape.
    pub fn with_graph(mut self, nodes: usize, edges: usize, max_degree: usize) -> Self {
        self.graph = Some((nodes, edges, max_degree));
        self
    }

    /// Sets the parallel engine's per-shard node counts.
    pub fn with_shards(mut self, shards: Vec<usize>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The `"type":"meta"` JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"type\":\"meta\",\"schema\":");
        s.push_str(&self.schema.to_string());
        if let Some(seed) = self.seed {
            s.push_str(",\"seed\":");
            s.push_str(&seed.to_string());
        }
        if let Some(threads) = self.threads {
            s.push_str(",\"threads\":");
            s.push_str(&threads.to_string());
        }
        if let Some((nodes, edges, max_degree)) = self.graph {
            s.push_str(",\"nodes\":");
            s.push_str(&nodes.to_string());
            s.push_str(",\"edges\":");
            s.push_str(&edges.to_string());
            s.push_str(",\"max_degree\":");
            s.push_str(&max_degree.to_string());
        }
        if let Some(shards) = &self.shards {
            s.push_str(",\"shards\":[");
            for (i, n) in shards.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&n.to_string());
            }
            s.push(']');
        }
        push_str(&mut s, "git_rev", &self.git_rev);
        push_str(&mut s, "rustc", &self.rustc);
        push_str(&mut s, "crate_version", &self.crate_version);
        s.push('}');
        s
    }

    /// One-line `# provenance:` CSV comment. Readers must skip lines that
    /// start with `#`.
    pub fn csv_comment(&self) -> String {
        let mut s = String::from("# provenance:");
        if let Some(seed) = self.seed {
            s.push_str(&format!(" seed={seed}"));
        }
        if let Some(threads) = self.threads {
            s.push_str(&format!(" threads={threads}"));
        }
        s.push_str(&format!(
            " git={} rustc=\"{}\" version={} schema={}",
            self.git_rev, self.rustc, self.crate_version, self.schema
        ));
        s
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_line_is_valid_json_and_tagged() {
        let p = Provenance::capture()
            .with_seed(7)
            .with_threads(4)
            .with_graph(16, 16, 2)
            .with_shards(vec![4, 4, 4, 4]);
        let line = p.to_jsonl();
        let v: serde::Value = serde_json::from_str(&line).expect("meta line parses");
        match v.get("type") {
            Some(serde::Value::String(t)) => assert_eq!(t, "meta"),
            other => panic!("bad type field {other:?}"),
        }
        assert_eq!(
            v.get("schema"),
            Some(&serde::Value::U64(u64::from(crate::SCHEMA_VERSION)))
        );
        assert_eq!(v.get("seed"), Some(&serde::Value::U64(7)));
        assert!(v.get("git_rev").is_some());
        assert!(v.get("rustc").is_some());
    }

    #[test]
    fn git_rev_is_a_commit_id_marked_dirty_or_unknown() {
        let rev = Provenance::capture().git_rev;
        let id = rev.strip_suffix("-dirty").unwrap_or(&rev);
        assert!(
            rev == "unknown" || (id.len() >= 4 && id.bytes().all(|b| b.is_ascii_hexdigit())),
            "{rev}"
        );
    }

    #[test]
    fn a_dirty_rev_reaches_both_formats() {
        let p = Provenance {
            git_rev: "9f910d7-dirty".to_owned(),
            ..Provenance::capture()
        };
        assert!(p.to_jsonl().contains(r#""git_rev":"9f910d7-dirty""#));
        assert!(p.csv_comment().contains(" git=9f910d7-dirty "));
    }

    #[test]
    fn csv_comment_starts_with_hash() {
        let c = Provenance::capture().with_seed(1).csv_comment();
        assert!(c.starts_with("# provenance:"));
        assert!(c.contains("seed=1"));
    }
}
