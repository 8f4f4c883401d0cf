//! The on-disk store: save/load/list of schema-tagged envelopes.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use pipebd_json::{Number, Value};

use crate::ArtifactPayload;

/// Error raised by [`ArtifactStore`] operations.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(io::Error),
    /// JSON syntax or data-model failure.
    Json(pipebd_json::Error),
    /// The envelope's schema tag does not match the requested payload.
    Schema {
        /// Schema found in the file.
        found: String,
        /// Schema the payload type expects.
        expected: &'static str,
    },
    /// The envelope's version does not match the payload's.
    Version {
        /// Version found in the file.
        found: u64,
        /// Version the payload type expects.
        expected: u32,
    },
    /// The file is not a well-formed artifact (envelope or checkpoint).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact JSON error: {e}"),
            ArtifactError::Schema { found, expected } => {
                write!(
                    f,
                    "artifact schema mismatch: found `{found}`, expected `{expected}`"
                )
            }
            ArtifactError::Version { found, expected } => {
                write!(
                    f,
                    "artifact version mismatch: found {found}, expected {expected}"
                )
            }
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<pipebd_json::Error> for ArtifactError {
    fn from(e: pipebd_json::Error) -> Self {
        ArtifactError::Json(e)
    }
}

/// Envelope metadata (everything but the payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Schema identifier.
    pub schema: String,
    /// Schema version.
    pub version: u64,
    /// Artifact name (the file stem).
    pub name: String,
    /// Creation time, seconds since the Unix epoch.
    pub created_unix_s: u64,
}

/// A directory of schema-tagged JSON artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens a store rooted at `root` (created lazily on first save).
    pub fn at(root: impl Into<PathBuf>) -> Self {
        ArtifactStore { root: root.into() }
    }

    /// Opens the default store: `$PIPEBD_ARTIFACT_DIR` if set, else the
    /// workspace's `target/artifacts`. The fallback is anchored at the
    /// workspace root via this crate's compile-time manifest path, so
    /// bins (`cargo run`, cwd = invocation dir) and tests/benches
    /// (cwd = package dir) agree on one store.
    pub fn from_env() -> Self {
        if let Some(dir) = std::env::var_os("PIPEBD_ARTIFACT_DIR") {
            return ArtifactStore { root: dir.into() };
        }
        let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap_or_else(|| Path::new("."));
        ArtifactStore {
            root: workspace_root.join("target").join("artifacts"),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an artifact name maps to.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.json"))
    }

    /// Persists `payload` as `<root>/<name>.json`, returning the path.
    ///
    /// The envelope is pretty-printed (artifacts are meant to be diffed
    /// and read in review) and ends with a newline.
    ///
    /// The write is atomic (a `.tmp` sibling renamed over the target):
    /// readers see the old envelope or the new one, nothing in between.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failures.
    pub fn save<T: ArtifactPayload>(
        &self,
        name: &str,
        payload: &T,
    ) -> Result<PathBuf, ArtifactError> {
        let payload_value = payload.to_json();
        let envelope = Value::Object(vec![
            ("schema".into(), Value::String(T::SCHEMA.into())),
            (
                "version".into(),
                Value::Number(Number::PosInt(u64::from(T::VERSION))),
            ),
            ("name".into(), Value::String(name.into())),
            (
                "created_unix_s".into(),
                Value::Number(Number::PosInt(unix_now_s())),
            ),
            ("payload".into(), payload_value),
        ]);
        let mut text = pipebd_json::render::pretty(&envelope);
        text.push('\n');
        let path = self.path_of(name);
        write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Loads and validates the artifact `name` as payload type `T`.
    ///
    /// # Errors
    ///
    /// I/O and JSON errors as in [`ArtifactStore::save`], plus
    /// [`ArtifactError::Schema`] / [`ArtifactError::Version`] when the
    /// envelope tags do not match `T`, and [`ArtifactError::Malformed`]
    /// when envelope fields are missing.
    pub fn load<T: ArtifactPayload>(&self, name: &str) -> Result<T, ArtifactError> {
        let (_, payload) = self.load_with_meta(name)?;
        Ok(payload)
    }

    /// Loads an artifact together with its envelope metadata.
    ///
    /// # Errors
    ///
    /// Same as [`ArtifactStore::load`].
    pub fn load_with_meta<T: ArtifactPayload>(
        &self,
        name: &str,
    ) -> Result<(ArtifactMeta, T), ArtifactError> {
        let (meta, payload_value) = self.load_raw(name)?;
        if meta.schema != T::SCHEMA {
            return Err(ArtifactError::Schema {
                found: meta.schema,
                expected: T::SCHEMA,
            });
        }
        if meta.version != u64::from(T::VERSION) {
            return Err(ArtifactError::Version {
                found: meta.version,
                expected: T::VERSION,
            });
        }
        let payload = T::from_json(&payload_value)?;
        Ok((meta, payload))
    }

    /// Loads an artifact's metadata and untyped payload tree without
    /// schema validation (the `artifact_smoke` lane uses this to audit
    /// whatever is on disk).
    ///
    /// # Errors
    ///
    /// I/O, JSON, and [`ArtifactError::Malformed`] errors.
    pub fn load_raw(&self, name: &str) -> Result<(ArtifactMeta, Value), ArtifactError> {
        let path = self.path_of(name);
        let text = retrying(|| fs::read_to_string(&path))?;
        let envelope = pipebd_json::parse(&text)?;
        let Value::Object(mut entries) = envelope else {
            return Err(ArtifactError::Malformed("envelope is not an object".into()));
        };
        let field = |entries: &[(String, Value)], key: &str| {
            entries
                .iter()
                .position(|(k, _)| k == key)
                .ok_or_else(|| ArtifactError::Malformed(format!("missing `{key}` field")))
        };
        let schema = entries[field(&entries, "schema")?]
            .1
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("`schema` is not a string".into()))?
            .to_owned();
        let version = entries[field(&entries, "version")?]
            .1
            .as_u64()
            .ok_or_else(|| ArtifactError::Malformed("`version` is not an integer".into()))?;
        let stored_name = entries[field(&entries, "name")?]
            .1
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("`name` is not a string".into()))?
            .to_owned();
        let created_unix_s = entries[field(&entries, "created_unix_s")?]
            .1
            .as_u64()
            .ok_or_else(|| ArtifactError::Malformed("`created_unix_s` is not an integer".into()))?;
        // Take the payload by value — run sets hold dozens of reports, and
        // a typed load should not deep-clone the whole subtree.
        let payload_idx = field(&entries, "payload")?;
        let payload = entries.swap_remove(payload_idx).1;
        Ok((
            ArtifactMeta {
                schema,
                version,
                name: stored_name,
                created_unix_s,
            },
            payload,
        ))
    }

    /// Names of all artifacts in the store, sorted. An absent root
    /// directory lists as empty.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on directory read failures.
    pub fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let mut names = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

fn unix_now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Writes `bytes` to `path` atomically: they land in a `<path>.tmp`
/// sibling first, which is renamed over the target, so a process that
/// dies mid-write never leaves a torn file at `path` (at worst a stale
/// sibling, which the next write replaces). Nothing is `fsync`ed: after
/// a power loss the file may be short, which is for the reader to detect
/// (checkpoints carry their length and a checksum). Missing parent
/// directories are created; transient filesystem errors are retried
/// ([`retrying`]).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    retrying(|| {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    })
}

/// Attempts before [`retrying`] gives up and surfaces the error.
const IO_ATTEMPTS: u32 = 3;

/// Backoff slept after attempt `n` (scaled by `n`; deterministic).
const IO_BACKOFF: std::time::Duration = std::time::Duration::from_millis(2);

/// Runs a filesystem operation, retrying transient failures.
///
/// Interrupted syscalls and spurious sharing/timeout conditions get
/// [`IO_ATTEMPTS`] tries with a short linear backoff; deterministic
/// failures (missing file, permissions, full disk) surface immediately —
/// retrying those only delays the caller's error handling.
pub(crate) fn retrying<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < IO_ATTEMPTS && transient(&e) => {
                std::thread::sleep(IO_BACKOFF * attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether an I/O error is worth retrying.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
