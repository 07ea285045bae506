//! The checkpoint manifest: a JSONL file of checksummed records.
//!
//! The first line is a header binding the manifest to a campaign kind,
//! schema version and spec fingerprint; every following line is one
//! completed work unit. Each line carries an FNV-1a checksum of its own
//! canonical serialization, so corruption is detected record-by-record.
//!
//! Durability contract:
//!
//! * the whole file is rewritten through [`crate::write_atomic`] at
//!   every checkpoint, so a reader sees either the previous manifest or
//!   the new one — never a torn intermediate;
//! * if the final line is nevertheless unparsable (e.g. the manifest was
//!   produced by a foreign appender or a dying filesystem), it is treated
//!   as a torn tail and dropped, because dropping a *suffix* only loses
//!   work, never correctness;
//! * a bad line anywhere *before* the tail is corruption and fails the
//!   load with a typed error.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use super::CAMPAIGN_SCHEMA_VERSION;
use crate::{fnv1a64, write_atomic};

/// Why a manifest could not be loaded, saved, opened or decoded.
#[derive(Debug, PartialEq)]
pub enum ManifestError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// A record line failed to parse or checksum (1-based line number).
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// The manifest was written by a different schema version.
    SchemaMismatch {
        /// Version found in the header.
        found: u64,
    },
    /// The manifest belongs to a different campaign kind.
    KindMismatch {
        /// Kind found in the header.
        found: String,
    },
    /// The manifest's spec fingerprint does not match the spec being
    /// resumed — its shards would not line up.
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the spec being resumed.
        expected: u64,
    },
    /// [`ResumeMode::Fresh`](super::ResumeMode) found this manifest.
    AlreadyStarted(PathBuf),
    /// [`ResumeMode::Resume`](super::ResumeMode) found no manifest in
    /// this directory.
    NothingToResume(PathBuf),
    /// A record does not decode as its job's payload.
    BadRecord {
        /// Id of the bad record.
        id: String,
        /// What went wrong.
        why: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(m) => write!(f, "manifest i/o error: {m}"),
            ManifestError::Corrupt { line, why } => {
                write!(f, "manifest corrupt at line {line}: {why}")
            }
            ManifestError::SchemaMismatch { found } => write!(
                f,
                "manifest schema version {found} is incompatible with this binary \
                 (expects {CAMPAIGN_SCHEMA_VERSION}); re-run the campaign from scratch"
            ),
            ManifestError::KindMismatch { found } => {
                write!(f, "manifest belongs to a {found:?} campaign, not this one")
            }
            ManifestError::FingerprintMismatch { found, expected } => write!(
                f,
                "manifest fingerprint {found:016x} does not match the spec being \
                 resumed ({expected:016x}); the grid, seeds or sharding differ"
            ),
            ManifestError::AlreadyStarted(p) => write!(
                f,
                "{} already holds a campaign manifest; use resume (or a fresh directory)",
                p.display()
            ),
            ManifestError::NothingToResume(p) => {
                write!(f, "{} holds no campaign manifest to resume", p.display())
            }
            ManifestError::BadRecord { id, why } => {
                write!(f, "manifest record {id:?} does not decode: {why}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// One completed work unit.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestRecord {
    /// Record id, unique within the manifest (e.g. a shard index).
    pub id: String,
    /// Arbitrary JSON payload.
    pub payload: Value,
}

/// An in-memory manifest, persisted as checksummed JSONL.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Campaign kind (header field; e.g. `"campaign"` or `"exp_all"`).
    pub kind: String,
    /// Spec fingerprint the manifest is bound to.
    pub fingerprint: u64,
    /// Extra header fields (spec parameters needed to resume).
    pub header: Value,
    /// Number of trailing unparsable lines dropped at load time.
    pub torn_tail_dropped: usize,
    records: Vec<ManifestRecord>,
    by_id: BTreeMap<String, usize>,
}

/// Serializes `fields` compactly with the checksum of that serialization
/// appended under the `"checksum"` key.
pub fn seal(mut fields: BTreeMap<String, Value>) -> String {
    fields.remove("checksum");
    let body = serde_json::to_string(&Value::Object(fields.clone())).expect("infallible");
    let sum = fnv1a64(body.as_bytes());
    fields.insert("checksum".into(), Value::String(format!("{sum:016x}")));
    serde_json::to_string(&Value::Object(fields)).expect("infallible")
}

/// Parses one sealed line back into its fields, verifying the checksum.
pub fn unseal(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let mut fields = v.as_object().ok_or("record is not an object")?.clone();
    let stated = fields
        .remove("checksum")
        .and_then(|c| c.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .ok_or("record has no checksum")?;
    let body = serde_json::to_string(&Value::Object(fields.clone())).expect("infallible");
    let actual = fnv1a64(body.as_bytes());
    if actual != stated {
        return Err(format!(
            "checksum mismatch: stated {stated:016x}, computed {actual:016x}"
        ));
    }
    Ok(fields)
}

impl Manifest {
    /// An empty manifest for a fresh campaign.
    pub fn new(kind: impl Into<String>, fingerprint: u64, header: Value) -> Self {
        Manifest {
            kind: kind.into(),
            fingerprint,
            header,
            torn_tail_dropped: 0,
            records: Vec::new(),
            by_id: BTreeMap::new(),
        }
    }

    /// Appends (or replaces) the record for `id`.
    pub fn put(&mut self, id: impl Into<String>, payload: Value) {
        let id = id.into();
        match self.by_id.get(&id) {
            Some(&i) => self.records[i].payload = payload,
            None => {
                self.by_id.insert(id.clone(), self.records.len());
                self.records.push(ManifestRecord { id, payload });
            }
        }
    }

    /// The payload recorded for `id`, if any.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.by_id.get(id).map(|&i| &self.records[i].payload)
    }

    /// All records, in append order.
    pub fn records(&self) -> &[ManifestRecord] {
        &self.records
    }

    /// Number of completed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no work unit has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the manifest as checksummed JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut fields = BTreeMap::new();
        fields.insert("kind".into(), Value::String(self.kind.clone()));
        fields.insert(
            "schema_version".into(),
            Value::from(CAMPAIGN_SCHEMA_VERSION),
        );
        fields.insert(
            "fingerprint".into(),
            Value::String(format!("{:016x}", self.fingerprint)),
        );
        fields.insert("spec".into(), self.header.clone());
        let mut out = seal(fields);
        out.push('\n');
        for r in &self.records {
            let mut fields = BTreeMap::new();
            fields.insert("id".into(), Value::String(r.id.clone()));
            fields.insert("payload".into(), r.payload.clone());
            out.push_str(&seal(fields));
            out.push('\n');
        }
        out
    }

    /// Persists the manifest atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), ManifestError> {
        write_atomic(path, self.to_jsonl().as_bytes())
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads and validates a manifest.
    ///
    /// `expected_kind` must match the header; `expected_fingerprint`, when
    /// given, must match too (status readers pass `None` because they have
    /// no spec to compare against).
    pub fn load(
        path: &Path,
        expected_kind: &str,
        expected_fingerprint: Option<u64>,
    ) -> Result<Manifest, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))?;
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines.next().ok_or(ManifestError::Corrupt {
            line: 1,
            why: "empty manifest".into(),
        })?;
        let header = unseal(header_line).map_err(|why| ManifestError::Corrupt { line: 1, why })?;
        let version = header
            .get("schema_version")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if version != CAMPAIGN_SCHEMA_VERSION {
            return Err(ManifestError::SchemaMismatch { found: version });
        }
        let kind = header
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if kind != expected_kind {
            return Err(ManifestError::KindMismatch { found: kind });
        }
        let fingerprint = header
            .get("fingerprint")
            .and_then(|f| f.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
            .ok_or(ManifestError::Corrupt {
                line: 1,
                why: "header has no fingerprint".into(),
            })?;
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(ManifestError::FingerprintMismatch {
                    found: fingerprint,
                    expected,
                });
            }
        }
        let mut m = Manifest::new(
            kind,
            fingerprint,
            header.get("spec").cloned().unwrap_or(Value::Null),
        );
        let body: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
        for (i, (lineno, line)) in body.iter().enumerate() {
            match unseal(line) {
                Ok(mut fields) => {
                    let id = fields
                        .remove("id")
                        .and_then(|v| v.as_str().map(str::to_string));
                    let payload = fields.remove("payload");
                    match (id, payload) {
                        (Some(id), Some(payload)) => m.put(id, payload),
                        _ => {
                            return Err(ManifestError::Corrupt {
                                line: lineno + 1,
                                why: "record missing id or payload".into(),
                            })
                        }
                    }
                }
                // A bad *final* line is a torn tail: drop it, losing only
                // that unit of work. A bad interior line is corruption.
                Err(why) if i + 1 == body.len() => {
                    m.torn_tail_dropped = 1;
                    let _ = why;
                }
                Err(why) => {
                    return Err(ManifestError::Corrupt {
                        line: lineno + 1,
                        why,
                    })
                }
            }
        }
        Ok(m)
    }
}

/// Encodes an `f64` as its exact bit pattern (hex), for metric fields
/// where the merge must be bit-identical across save/load.
pub fn f64_to_bits_json(v: f64) -> Value {
    Value::String(format!("{:016x}", v.to_bits()))
}

/// Decodes a value produced by [`f64_to_bits_json`].
pub fn f64_from_bits_json(v: &Value) -> Option<f64> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(f64::from_bits)
}
