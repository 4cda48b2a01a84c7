//! The checked-in seed corpus.
//!
//! `tests/corpus/*.json` pins the scenarios every CI run re-checks: one
//! JSON object per file, either a seed to regenerate (`{"seed": N,
//! "note": "..."}`) or a full shrunk scenario (the
//! [`crate::shrink::Repro`] format with `"scenario"` inline) for failures
//! that were fixed and must stay fixed.
//! Files are loaded in filename order so corpus runs are reproducible.

use crate::gen::Scenario;
use crate::oracle::{check_scenario, ScenarioOutcome, Violation};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One corpus entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The generating seed (used when no explicit scenario is pinned).
    pub seed: u64,
    /// Why this entry exists (shown on failure).
    #[serde(default)]
    pub note: String,
    /// An explicit scenario (e.g. a shrunk former failure); takes
    /// precedence over regenerating from `seed`.
    #[serde(default)]
    pub scenario: Option<Scenario>,
}

impl CorpusEntry {
    /// The scenario this entry pins: the inline one, else
    /// [`Scenario::generate`]`(seed)`.
    pub fn scenario(&self) -> Scenario {
        self.scenario.clone().unwrap_or_else(|| Scenario::generate(self.seed))
    }

    /// Run every oracle over the pinned scenario.
    pub fn check(&self) -> Result<ScenarioOutcome, Violation> {
        check_scenario(&self.scenario())
    }
}

/// Load every `*.json` entry under `dir`, sorted by filename. A missing
/// directory is an error (the corpus is checked in; losing it should fail
/// loudly, not skip silently).
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry: CorpusEntry =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_without_scenario_regenerates_from_seed() {
        let entry: CorpusEntry = serde_json::from_str(r#"{"seed": 17, "note": "smoke"}"#).unwrap();
        assert_eq!(entry.scenario(), Scenario::generate(17));
    }

    #[test]
    fn inline_scenario_takes_precedence() {
        let sc = Scenario::generate(4);
        let entry = CorpusEntry { seed: 999, note: String::new(), scenario: Some(sc.clone()) };
        assert_eq!(entry.scenario(), sc);
        let json = serde_json::to_string(&entry).unwrap();
        let back: CorpusEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenario(), sc);
    }

    #[test]
    fn missing_corpus_dir_is_a_loud_error() {
        let err = load_corpus(Path::new("/nonexistent/corpus")).unwrap_err();
        assert!(err.contains("corpus dir"), "{err}");
    }
}
