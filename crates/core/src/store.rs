//! The persistent packed-shard store: a crash-safe on-disk database of
//! [`PackedSeq`] entries with end-to-end integrity verification and
//! corruption quarantine.
//!
//! The ROADMAP's "millions of users" north star needs the scan pipeline
//! to run over a *durable* substrate instead of re-packing in-memory
//! sequences per call. Built naively, an on-disk format is also the
//! first place real deployments break — torn writes, bit rot, version
//! skew — so this module is built robustness-first:
//!
//! - **Crash-safe builds** — [`build_store`] writes to a temp file in
//!   the destination directory, fsyncs, and atomically renames into
//!   place (then fsyncs the directory). A partially written build is
//!   never openable: either the old file or the complete new one.
//! - **Versioned superblock** — magic, format version, an endianness
//!   canary, and the alphabet parameters, all checksummed, so a file
//!   from the wrong build/arch/alphabet is rejected with a typed
//!   [`StoreError`], never misread.
//! - **Length-sorted shards, checksummed chunks** — entries are laid
//!   out length-sorted in shards of packed code words, each shard's
//!   payload split into chunks with an xxhash-style checksum per chunk
//!   (hand-rolled [`xxh64`]; no new dependencies). [`PackedStore::open_validated`]
//!   verifies the header and manifest *eagerly* but chunk checksums
//!   *lazily at first touch* — cold opens are metadata-only.
//! - **Manifest-costed admission** — the manifest records every entry's
//!   length, so [`estimate_store_scan_cells`] (and therefore
//!   [`crate::service::ScanService`] admission) prices a query without
//!   touching a single payload chunk.
//! - **Corruption quarantine** — a failed chunk verification surfaces
//!   as [`StoreError::Corrupt`]`{shard, chunk}` and is treated exactly
//!   like a stripe fault: the whole shard is quarantined, its pairs
//!   land in the [`ScanOutcome`] ledger as faulted (retryable), a
//!   configured replica ([`StoreTarget::with_replica`]) serves them in
//!   place, and the service's backoff policy retries what is left. The
//!   result is always a typed, attributed, resumable partial ledger —
//!   never a panic, never a silently wrong answer.
//! - **Token↔DB binding** — every [`ResumeToken`] issued by a store
//!   scan carries the database's content hash; resuming against a
//!   rebuilt or different store is rejected up front.
//!
//! The layout is mmap-friendly (fixed header, aligned contiguous
//! payload, self-contained trailer manifest). The reader here uses safe
//! positioned reads with a chunk-granular lazy cache — the demand-paging
//! access pattern of an mmap without `unsafe` (this crate forbids it);
//! see `docs/ROBUSTNESS.md` for the full on-disk invariants.
//!
//! ```no_run
//! use race_logic::alignment::RaceWeights;
//! use race_logic::early_termination::{scan, ScanEntries};
//! use race_logic::engine::AlignConfig;
//! use race_logic::store::{build_store, PackedStore, StoreParams, StoreTarget};
//! use race_logic::supervisor::ScanControl;
//! use rl_bio::{alphabet::Dna, PackedSeq, Seq};
//!
//! let db: Vec<PackedSeq<Dna>> = ["GATTCGA", "ACTGAGA", "TTTTTTT"]
//!     .iter()
//!     .map(|s| PackedSeq::from_seq(&s.parse::<Seq<Dna>>().unwrap()))
//!     .collect();
//! build_store("scan.rlp", &db, &StoreParams::default())?;
//!
//! let store = PackedStore::<Dna>::open_validated("scan.rlp")?;
//! let target = StoreTarget::new(store.into());
//! let query = PackedSeq::from_seq(&"ACTGAGA".parse::<Seq<Dna>>().unwrap());
//! let cfg = AlignConfig::new(RaceWeights::fig4());
//! let (outcome, _token) = scan(
//!     &cfg, &query, ScanEntries::Store(&target), 1, None, None, &ScanControl::new(),
//! )?;
//! assert_eq!(outcome.hits[0].0, 1); // exact match wins the race
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rl_bio::{alphabet::Symbol, PackedSeq};

use crate::early_termination::{price_cells, scan, ScanEntries};
use crate::engine::AlignConfig;
use crate::error::AlignError;
use crate::supervisor::{fp_hit, panic_message, Fault, ResumeToken, ScanControl, ScanOutcome};
use crate::telemetry::{self, flight, TraceEvent};

/// Magic bytes opening every store file (`RLPKDB01` little-endian).
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"RLPKDB01");
/// The on-disk format version this build reads and writes.
pub const STORE_VERSION: u32 = 1;
/// Endianness canary: written as a native u32, read back and compared —
/// a big-endian writer produces `0x0403_0201` on a little-endian reader.
const ENDIAN_TAG: u32 = 0x0102_0304;
/// Fixed superblock size in bytes.
const HEADER_LEN: u64 = 96;
/// Seed of the content hash (distinct from chunk/manifest seeds so a
/// checksum can never be confused for a content hash).
const CONTENT_SEED: u64 = 0xC0_47E47;
/// Seed of per-chunk checksums.
const CHUNK_SEED: u64 = 0xC4_0C4;
/// Seed of the manifest trailer checksum.
const MANIFEST_SEED: u64 = 0x3A_217;
/// Seed of the header checksum.
const HEADER_SEED: u64 = 0x4EAD;

// XXH64 prime constants (public-domain algorithm by Yann Collet).
const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

/// The 64-bit XXH64 hash of `data` under `seed` — a hand-rolled,
/// dependency-free implementation of the public-domain xxHash64
/// algorithm, verified against the reference vectors. Every integrity
/// check in the store format (chunk checksums, manifest trailer, header
/// checksum, content hash) is an `xxh64` under a distinct seed.
#[must_use]
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h = if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xxh_round(v1, read_u64_le(&rest[0..8]));
            v2 = xxh_round(v2, read_u64_le(&rest[8..16]));
            v3 = xxh_round(v3, read_u64_le(&rest[16..24]));
            v4 = xxh_round(v4, read_u64_le(&rest[24..32]));
            rest = &rest[32..];
        }
        let mut acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        acc = xxh_merge(acc, v1);
        acc = xxh_merge(acc, v2);
        acc = xxh_merge(acc, v3);
        xxh_merge(acc, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read_u64_le(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let k = u64::from(u32::from_le_bytes(
            rest[..4].try_into().expect("4-byte slice"),
        ));
        h ^= k.wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Typed failures of the store layer. Every byte-level way a file can
/// be wrong maps to one of these — the store read path has no
/// `panic!`/`unwrap` reachable from malformed input (fuzz-tested by
/// flipping every header/manifest byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O operation failed (including injected EIO from
    /// the `store-*` failpoints).
    Io {
        /// What the store was doing when the I/O failed.
        context: String,
    },
    /// The file does not start with [`STORE_MAGIC`] — not a store file.
    BadMagic {
        /// The 8 bytes actually found.
        found: u64,
    },
    /// The file's format version is not [`STORE_VERSION`].
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
    },
    /// The endianness canary does not match: the file was written on an
    /// architecture with different byte order.
    EndiannessMismatch,
    /// The file was built for a different alphabet (bits per symbol or
    /// symbol count differ from the requested `S`).
    AlphabetMismatch {
        /// Bits per symbol recorded in the file.
        bits: u32,
        /// Symbol count recorded in the file.
        count: u32,
    },
    /// The superblock failed its checksum or carries impossible field
    /// values (offsets/lengths that don't tile the file).
    HeaderCorrupt {
        /// Which invariant failed.
        reason: String,
    },
    /// The manifest failed its trailer checksum, failed to parse, or
    /// describes a layout that violates a structural invariant.
    ManifestCorrupt {
        /// Which invariant failed.
        reason: String,
    },
    /// The recomputed content hash does not match the superblock's —
    /// header and manifest are from different builds.
    ContentHashMismatch {
        /// The hash recorded in the header.
        expected: u64,
        /// The hash recomputed from the manifest.
        found: u64,
    },
    /// A payload chunk failed its checksum at first touch: bit rot or a
    /// torn write inside shard `shard`. The scan layer quarantines the
    /// whole shard.
    Corrupt {
        /// The shard whose payload failed verification.
        shard: usize,
        /// The failing chunk within that shard.
        chunk: usize,
    },
    /// The file ends before a region the header/manifest promised.
    Truncated {
        /// What the store was reading when it ran out of bytes.
        context: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context } => write!(f, "store I/O error: {context}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a packed store file (magic {found:#018x})")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found} (this build reads {STORE_VERSION})")
            }
            StoreError::EndiannessMismatch => {
                write!(f, "store file written with a different byte order")
            }
            StoreError::AlphabetMismatch { bits, count } => write!(
                f,
                "store file holds a different alphabet ({bits} bits/symbol, {count} symbols)"
            ),
            StoreError::HeaderCorrupt { reason } => write!(f, "store header corrupt: {reason}"),
            StoreError::ManifestCorrupt { reason } => {
                write!(f, "store manifest corrupt: {reason}")
            }
            StoreError::ContentHashMismatch { expected, found } => write!(
                f,
                "store content hash mismatch: header says {expected:#018x}, manifest hashes to {found:#018x}"
            ),
            StoreError::Corrupt { shard, chunk } => {
                write!(f, "store payload corrupt: shard {shard}, chunk {chunk} failed its checksum")
            }
            StoreError::Truncated { context } => write!(f, "store file truncated: {context}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            context: e.to_string(),
        }
    }
}

/// Layout knobs of [`build_store`]. The defaults suit DNA databases of
/// short reads; both knobs only change the physical layout, never the
/// scan result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreParams {
    /// Bytes per checksummed payload chunk (the unit of lazy
    /// verification and of quarantine granularity *within* a shard).
    pub chunk_size: usize,
    /// Entries per shard (the unit of quarantine: one corrupt chunk
    /// quarantines its whole shard).
    pub shard_entries: usize,
}

impl Default for StoreParams {
    fn default() -> Self {
        StoreParams {
            chunk_size: 4096,
            shard_entries: 64,
        }
    }
}

/// One entry's manifest record.
#[derive(Debug, Clone)]
struct EntryMeta {
    /// The caller's original database index — scan hits and ledger
    /// entries are reported in this currency so a store scan is
    /// byte-identical to the in-memory scan despite the length-sorted
    /// physical order.
    input_index: usize,
    /// Symbols.
    len: usize,
    /// Byte offset of the entry's packed words inside the shard payload.
    byte_off: u64,
}

/// One shard's manifest record.
#[derive(Debug, Clone)]
struct ShardMeta {
    /// Absolute file offset of the shard payload.
    payload_off: u64,
    /// Shard payload length in bytes.
    payload_len: u64,
    /// Per-chunk XXH64 checksums ([`CHUNK_SEED`]).
    chunk_sums: Vec<u64>,
    /// Member entries in store order.
    entries: Vec<EntryMeta>,
}

/// Builds a store file at `path` from `entries`, crash-safely: the
/// bytes go to a temp file in the same directory, are fsynced, and are
/// atomically renamed over `path` (the directory is fsynced too). On
/// any failure — including an injected `store-write` fault — the temp
/// file is removed and `path` is untouched, so a partially written
/// build is never openable.
///
/// Entries are laid out **length-sorted** (ties by input index) in
/// shards of [`StoreParams::shard_entries`]; the manifest maps each
/// physical entry back to its original input index, so scans report
/// hits in the caller's index space. Returns the store's content hash —
/// the value [`PackedStore::content_hash`] reports after open, and the
/// hash resume tokens are bound to.
///
/// Rejects empty databases and empty entries (the same rule as the scan
/// validators) and zero-sized layout knobs, all as typed errors.
pub fn build_store<S: Symbol>(
    path: impl AsRef<Path>,
    entries: &[PackedSeq<S>],
    params: &StoreParams,
) -> Result<u64, StoreError> {
    let path = path.as_ref();
    if entries.is_empty() {
        return Err(StoreError::Io {
            context: "refusing to build an empty store".into(),
        });
    }
    if let Some(i) = entries.iter().position(PackedSeq::is_empty) {
        return Err(StoreError::Io {
            context: format!("refusing to store empty entry {i}"),
        });
    }
    if params.chunk_size == 0 || params.shard_entries == 0 {
        return Err(StoreError::Io {
            context: "chunk_size and shard_entries must be positive".into(),
        });
    }

    // Length-sorted physical order, ties by input index (deterministic).
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_unstable_by_key(|&i| (entries[i].len(), i));

    // Assemble payload and manifest records shard by shard.
    let mut payload: Vec<u8> = Vec::new();
    let mut shards: Vec<ShardMeta> = Vec::new();
    for group in order.chunks(params.shard_entries) {
        let payload_off = HEADER_LEN + payload.len() as u64;
        let mut entry_metas = Vec::with_capacity(group.len());
        let start = payload.len();
        for &input_index in group {
            let e = &entries[input_index];
            let byte_off = (payload.len() - start) as u64;
            for w in e.words() {
                payload.extend_from_slice(&w.to_le_bytes());
            }
            entry_metas.push(EntryMeta {
                input_index,
                len: e.len(),
                byte_off,
            });
        }
        let shard_bytes = &payload[start..];
        let chunk_sums: Vec<u64> = shard_bytes
            .chunks(params.chunk_size)
            .map(|c| xxh64(c, CHUNK_SEED))
            .collect();
        shards.push(ShardMeta {
            payload_off,
            payload_len: shard_bytes.len() as u64,
            chunk_sums,
            entries: entry_metas,
        });
    }

    // Serialize the manifest; its body (sans trailer) is the content
    // hash's preimage, so the hash binds every chunk checksum and every
    // entry's (input index, length) in one value.
    let mut manifest: Vec<u8> = Vec::new();
    manifest.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for s in &shards {
        manifest.extend_from_slice(&s.payload_off.to_le_bytes());
        manifest.extend_from_slice(&s.payload_len.to_le_bytes());
        manifest.extend_from_slice(&(s.chunk_sums.len() as u64).to_le_bytes());
        for sum in &s.chunk_sums {
            manifest.extend_from_slice(&sum.to_le_bytes());
        }
        manifest.extend_from_slice(&(s.entries.len() as u64).to_le_bytes());
        for e in &s.entries {
            manifest.extend_from_slice(&(e.input_index as u64).to_le_bytes());
            manifest.extend_from_slice(&(e.len as u64).to_le_bytes());
            manifest.extend_from_slice(&e.byte_off.to_le_bytes());
        }
    }
    let content_hash = xxh64(&manifest, CONTENT_SEED);
    let trailer = xxh64(&manifest, MANIFEST_SEED);
    manifest.extend_from_slice(&trailer.to_le_bytes());

    // Superblock.
    let manifest_off = HEADER_LEN + payload.len() as u64;
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&STORE_MAGIC.to_le_bytes());
    header.extend_from_slice(&STORE_VERSION.to_le_bytes());
    header.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
    header.extend_from_slice(&S::bits().to_le_bytes());
    header.extend_from_slice(&(S::COUNT as u32).to_le_bytes());
    header.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    header.extend_from_slice(&(params.chunk_size as u64).to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&manifest_off.to_le_bytes());
    header.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
    header.extend_from_slice(&content_hash.to_le_bytes());
    header.extend_from_slice(&[0_u8; 16]); // reserved for future versions
    let header_sum = xxh64(&header, HEADER_SEED);
    header.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(header.len() as u64, HEADER_LEN);

    // Crash-safe commit: temp file in the same directory → write →
    // fsync → atomic rename → fsync directory. The guard removes the
    // temp file on every failure path, injected panics included.
    let tmp_path = tmp_sibling(path);
    let guard = TmpGuard {
        path: tmp_path.clone(),
        committed: false,
    };
    let mut guard = guard;
    let write_all = || -> Result<(), StoreError> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&header)?;
        f.write_all(&payload)?;
        // An injected `store-write` fault models a crash mid-commit:
        // header and payload are on disk, the manifest is not, and the
        // rename never happens.
        fp_hit("store-write");
        f.write_all(&manifest)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Durability of the rename itself. Directory fsync is a
            // Unix-ism; tolerate platforms where a directory can't be
            // opened, but surface real sync failures.
            if let Ok(d) = File::open(dir) {
                d.sync_all()?;
            }
        }
        Ok(())
    };
    match catch_unwind(AssertUnwindSafe(write_all)) {
        Ok(Ok(())) => {
            guard.committed = true;
            Ok(content_hash)
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(StoreError::Io {
            context: format!("store-write fault: {}", panic_message(&*payload)),
        }),
    }
}

/// The temp-file path a build commits through: a dot-prefixed sibling
/// in the destination directory (same filesystem, so the rename is
/// atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".into());
    path.with_file_name(format!(".{name}.tmp"))
}

/// Removes the build's temp file unless the rename committed.
struct TmpGuard {
    path: PathBuf,
    committed: bool,
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A little-endian cursor over an untrusted byte buffer: every read is
/// bounds-checked into a typed error (no slicing panics reachable from
/// malformed input).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(StoreError::ManifestCorrupt {
                reason: format!("ran out of bytes reading {what}"),
            });
        };
        let v = read_u64_le(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(v)
    }

    /// A u64 that must fit a usize and stay under `cap` (structural
    /// sanity: no length field may exceed the file size, so corrupt
    /// lengths can't drive huge allocations).
    fn len_checked(&mut self, what: &str, cap: u64) -> Result<usize, StoreError> {
        let v = self.u64(what)?;
        if v > cap {
            return Err(StoreError::ManifestCorrupt {
                reason: format!("{what} = {v} exceeds bound {cap}"),
            });
        }
        usize::try_from(v).map_err(|_| StoreError::ManifestCorrupt {
            reason: format!("{what} = {v} does not fit this platform's usize"),
        })
    }
}

/// One slot of the lazy chunk cache: empty until the chunk's checksum
/// has verified, then the shared verified bytes.
type ChunkSlot = Mutex<Option<Arc<Vec<u8>>>>;

/// A validated, lazily verified read handle over a store file built by
/// [`build_store`]; see the [module docs](self) for the design.
///
/// `open_validated` is the only constructor: the superblock and the
/// manifest are fully verified before it returns (checksums, structural
/// invariants, content hash), while payload chunks are read and
/// checksum-verified on first touch — so opening is cheap and
/// admission-control never touches payload pages
/// ([`PackedStore::chunks_loaded`] stays 0 until a scan runs; tested).
pub struct PackedStore<S: Symbol> {
    path: PathBuf,
    file: Mutex<File>,
    shards: Vec<ShardMeta>,
    /// input index → (shard, entry-within-shard).
    input_map: Vec<(usize, usize)>,
    /// input index → symbol length (admission costing without page
    /// touches).
    lengths: Vec<usize>,
    max_len: usize,
    chunk_size: usize,
    content_hash: u64,
    /// Lazily verified chunk cache, `[shard][chunk]`.
    cache: Vec<Vec<ChunkSlot>>,
    chunks_loaded: AtomicU64,
    chunk_cache_hits: AtomicU64,
    verify_failures: AtomicU64,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Symbol> std::fmt::Debug for PackedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedStore")
            .field("path", &self.path)
            .field("entries", &self.lengths.len())
            .field("shards", &self.shards.len())
            .field("content_hash", &format_args!("{:#018x}", self.content_hash))
            .field("chunks_loaded", &self.chunks_loaded())
            .field("chunk_cache_hits", &self.chunk_cache_hits())
            .field("verify_failures", &self.verify_failures())
            .finish()
    }
}

impl<S: Symbol> PackedStore<S> {
    /// Opens `path` and eagerly verifies everything except the payload:
    /// superblock magic/version/endianness/alphabet/checksum, manifest
    /// trailer checksum, every structural invariant of the manifest
    /// (regions tile the file exactly, entries tile their shards, the
    /// input-index map is a permutation, lengths are sorted), and the
    /// content hash binding header to manifest. Payload chunks are
    /// *not* read — they verify lazily at first touch.
    ///
    /// Any defect is a typed [`StoreError`]; injected `store-open`
    /// faults surface as [`StoreError::Io`].
    pub fn open_validated(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        // An injected `store-open` panic models EIO during open.
        match catch_unwind(AssertUnwindSafe(|| Self::open_inner(path))) {
            Ok(res) => res,
            Err(payload) => Err(StoreError::Io {
                context: format!("store-open fault: {}", panic_message(&*payload)),
            }),
        }
    }

    fn open_inner(path: &Path) -> Result<Self, StoreError> {
        fp_hit("store-open");
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        // --- Superblock ---
        if file_len < HEADER_LEN {
            return Err(StoreError::Truncated {
                context: format!("{file_len}-byte file cannot hold the {HEADER_LEN}-byte header"),
            });
        }
        let mut header = [0_u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let magic = read_u64_le(&header[0..]);
        if magic != STORE_MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let endian = u32::from_ne_bytes(header[12..16].try_into().expect("4 bytes"));
        if endian != ENDIAN_TAG {
            return Err(StoreError::EndiannessMismatch);
        }
        let bits = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        let count = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
        if bits != S::bits() || count as usize != S::COUNT {
            return Err(StoreError::AlphabetMismatch { bits, count });
        }
        let header_sum = read_u64_le(&header[88..]);
        if xxh64(&header[..88], HEADER_SEED) != header_sum {
            return Err(StoreError::HeaderCorrupt {
                reason: "superblock checksum mismatch".into(),
            });
        }
        let total_entries = read_u64_le(&header[24..]);
        let chunk_size = read_u64_le(&header[32..]);
        let payload_len = read_u64_le(&header[40..]);
        let manifest_off = read_u64_le(&header[48..]);
        let manifest_len = read_u64_le(&header[56..]);
        let content_hash = read_u64_le(&header[64..]);
        if chunk_size == 0 {
            return Err(StoreError::HeaderCorrupt {
                reason: "chunk size is zero".into(),
            });
        }
        // Every entry costs ≥ 8 payload bytes + 24 manifest bytes, so a
        // claimed entry count beyond the file size is structurally
        // impossible — bound it before sizing any allocation by it.
        if total_entries == 0 || total_entries > file_len {
            return Err(StoreError::HeaderCorrupt {
                reason: format!(
                    "implausible entry count {total_entries} for a {file_len}-byte file"
                ),
            });
        }
        if manifest_off != HEADER_LEN.wrapping_add(payload_len)
            || manifest_off.checked_add(manifest_len) != Some(file_len)
        {
            return Err(StoreError::HeaderCorrupt {
                reason: format!(
                    "regions do not tile the file: header {HEADER_LEN} + payload {payload_len} + \
                     manifest {manifest_len} vs file length {file_len}"
                ),
            });
        }
        if manifest_len < 16 {
            return Err(StoreError::HeaderCorrupt {
                reason: "manifest too short for a shard count and trailer".into(),
            });
        }
        let chunk_size = usize::try_from(chunk_size).map_err(|_| StoreError::HeaderCorrupt {
            reason: "chunk size does not fit usize".into(),
        })?;
        let total = usize::try_from(total_entries).map_err(|_| StoreError::HeaderCorrupt {
            reason: "entry count does not fit usize".into(),
        })?;

        // --- Manifest ---
        let manifest_len =
            usize::try_from(manifest_len).map_err(|_| StoreError::HeaderCorrupt {
                reason: "manifest length does not fit usize".into(),
            })?;
        let mut manifest = vec![0_u8; manifest_len];
        file.seek(SeekFrom::Start(manifest_off))?;
        file.read_exact(&mut manifest)
            .map_err(|_| StoreError::Truncated {
                context: "manifest region".into(),
            })?;
        let (body, trailer_bytes) = manifest.split_at(manifest_len - 8);
        if xxh64(body, MANIFEST_SEED) != read_u64_le(trailer_bytes) {
            return Err(StoreError::ManifestCorrupt {
                reason: "trailer checksum mismatch".into(),
            });
        }
        let found_hash = xxh64(body, CONTENT_SEED);
        if found_hash != content_hash {
            return Err(StoreError::ContentHashMismatch {
                expected: content_hash,
                found: found_hash,
            });
        }

        let mut cur = Cursor::new(body);
        let shard_count = cur.len_checked("shard count", total_entries)?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut next_off = HEADER_LEN;
        let mut input_map = vec![None::<(usize, usize)>; total];
        let mut lengths = vec![0_usize; total];
        let mut seen_entries = 0_usize;
        let mut prev_len = 0_usize;
        for s in 0..shard_count {
            let payload_off = cur.u64("shard payload offset")?;
            let shard_len = cur.u64("shard payload length")?;
            if payload_off != next_off {
                return Err(StoreError::ManifestCorrupt {
                    reason: format!("shard {s} payload at {payload_off}, expected {next_off}"),
                });
            }
            let Some(end) = payload_off
                .checked_add(shard_len)
                .filter(|&e| e <= manifest_off)
            else {
                return Err(StoreError::ManifestCorrupt {
                    reason: format!("shard {s} payload overruns the payload region"),
                });
            };
            next_off = end;
            let want_chunks = (shard_len as usize).div_ceil(chunk_size);
            let chunk_count = cur.len_checked("chunk count", manifest_off)?;
            if chunk_count != want_chunks {
                return Err(StoreError::ManifestCorrupt {
                    reason: format!(
                        "shard {s}: {chunk_count} chunk checksums for a {shard_len}-byte payload \
                         (expected {want_chunks})"
                    ),
                });
            }
            let mut chunk_sums = Vec::with_capacity(chunk_count);
            for _ in 0..chunk_count {
                chunk_sums.push(cur.u64("chunk checksum")?);
            }
            let entry_count = cur.len_checked("entry count", total_entries)?;
            if entry_count == 0 {
                return Err(StoreError::ManifestCorrupt {
                    reason: format!("shard {s} holds no entries"),
                });
            }
            let per_word = PackedSeq::<S>::symbols_per_word();
            let mut entries = Vec::with_capacity(entry_count);
            let mut next_byte = 0_u64;
            for e in 0..entry_count {
                let input_index = cur.len_checked("entry input index", total_entries)?;
                let len = cur.len_checked("entry length", u64::MAX)?;
                let byte_off = cur.u64("entry byte offset")?;
                if len == 0 {
                    return Err(StoreError::ManifestCorrupt {
                        reason: format!("shard {s} entry {e} is empty"),
                    });
                }
                if input_index >= total {
                    return Err(StoreError::ManifestCorrupt {
                        reason: format!("entry input index {input_index} beyond {total} entries"),
                    });
                }
                if input_map[input_index].is_some() {
                    return Err(StoreError::ManifestCorrupt {
                        reason: format!("input index {input_index} appears twice"),
                    });
                }
                if byte_off != next_byte {
                    return Err(StoreError::ManifestCorrupt {
                        reason: format!(
                            "shard {s} entry {e} at byte {byte_off}, expected {next_byte}"
                        ),
                    });
                }
                let word_bytes =
                    (len.div_ceil(per_word) as u64)
                        .checked_mul(8)
                        .ok_or_else(|| StoreError::ManifestCorrupt {
                            reason: format!("entry length {len} overflows the byte span"),
                        })?;
                next_byte = byte_off.checked_add(word_bytes).ok_or_else(|| {
                    StoreError::ManifestCorrupt {
                        reason: format!("shard {s} entry {e} byte span overflows"),
                    }
                })?;
                if len < prev_len {
                    return Err(StoreError::ManifestCorrupt {
                        reason: "entries are not length-sorted".into(),
                    });
                }
                prev_len = len;
                input_map[input_index] = Some((s, e));
                lengths[input_index] = len;
                entries.push(EntryMeta {
                    input_index,
                    len,
                    byte_off,
                });
            }
            if next_byte != shard_len {
                return Err(StoreError::ManifestCorrupt {
                    reason: format!(
                        "shard {s} entries span {next_byte} bytes of a {shard_len}-byte payload"
                    ),
                });
            }
            seen_entries += entry_count;
            shards.push(ShardMeta {
                payload_off,
                payload_len: shard_len,
                chunk_sums,
                entries,
            });
        }
        if cur.pos != body.len() {
            return Err(StoreError::ManifestCorrupt {
                reason: format!(
                    "{} trailing manifest bytes after the last shard",
                    body.len() - cur.pos
                ),
            });
        }
        if seen_entries != total || next_off != manifest_off {
            return Err(StoreError::ManifestCorrupt {
                reason: format!(
                    "manifest covers {seen_entries}/{total} entries and {next_off}/{manifest_off} \
                     payload bytes"
                ),
            });
        }
        let input_map: Vec<(usize, usize)> = input_map
            .into_iter()
            .map(|slot| {
                slot.ok_or_else(|| StoreError::ManifestCorrupt {
                    reason: "input-index map is not a permutation".into(),
                })
            })
            .collect::<Result<_, _>>()?;

        let cache = shards
            .iter()
            .map(|s| (0..s.chunk_sums.len()).map(|_| Mutex::new(None)).collect())
            .collect();
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        Ok(PackedStore {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            shards,
            input_map,
            lengths,
            max_len,
            chunk_size,
            content_hash,
            cache,
            chunks_loaded: AtomicU64::new(0),
            chunk_cache_hits: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        })
    }

    /// Total entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// `false` always — [`build_store`] rejects empty databases, so an
    /// opened store has at least one entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// The store's content hash: an XXH64 over the manifest body, which
    /// itself binds every chunk checksum and every entry's identity and
    /// length. Two stores share a hash iff they describe byte-identical
    /// content; resume tokens are bound to it.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The file this store was opened from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Symbol length of entry `input_index` (the caller's original
    /// index), straight from the manifest — no payload touch.
    ///
    /// # Panics
    ///
    /// Panics if `input_index >= self.len()`.
    #[must_use]
    pub fn entry_len(&self, input_index: usize) -> usize {
        self.lengths[input_index]
    }

    /// The longest entry, from the manifest.
    #[must_use]
    pub fn max_entry_len(&self) -> usize {
        self.max_len
    }

    /// Shards in the store.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding entry `input_index`.
    ///
    /// # Panics
    ///
    /// Panics if `input_index >= self.len()`.
    #[must_use]
    pub fn shard_of(&self, input_index: usize) -> usize {
        self.input_map[input_index].0
    }

    /// The original input indices of shard `shard`'s entries, in
    /// physical order — the pair set a quarantine of this shard faults.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_members(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        self.shards[shard].entries.iter().map(|e| e.input_index)
    }

    /// Payload chunks in shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    #[must_use]
    pub fn shard_chunk_count(&self, shard: usize) -> usize {
        self.shards[shard].chunk_sums.len()
    }

    /// Payload chunks read (and checksum-verified) so far — the "page
    /// touches" counter the cold-admission regression test asserts on.
    #[must_use]
    pub fn chunks_loaded(&self) -> u64 {
        self.chunks_loaded.load(Ordering::Relaxed)
    }

    /// Chunk reads served from the in-memory verified cache — the warm
    /// complement of [`chunks_loaded`](PackedStore::chunks_loaded),
    /// asserted by the cold-vs-warm store bench.
    #[must_use]
    pub fn chunk_cache_hits(&self) -> u64 {
        self.chunk_cache_hits.load(Ordering::Relaxed)
    }

    /// Chunk checksum (or decode) verification failures observed so far.
    /// Each failure also lands in the global telemetry registry and
    /// triggers a flight-recorder dump.
    #[must_use]
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }

    /// The absolute file byte range of chunk `chunk` of shard `shard` —
    /// the corruption-injection surface for tests and the soak bench
    /// (flip a byte inside the range, the next first-touch read of that
    /// chunk fails its checksum).
    ///
    /// # Panics
    ///
    /// Panics if `shard`/`chunk` are out of range.
    #[must_use]
    pub fn chunk_file_range(&self, shard: usize, chunk: usize) -> (u64, usize) {
        let s = &self.shards[shard];
        assert!(chunk < s.chunk_sums.len(), "chunk index out of range");
        let off = s.payload_off + (chunk * self.chunk_size) as u64;
        let len = (s.payload_len as usize - chunk * self.chunk_size).min(self.chunk_size);
        (off, len)
    }

    /// Loads (or returns the cached) chunk `chunk` of shard `shard`,
    /// verifying its checksum at first touch. `store-chunk-read` faults
    /// and real read errors surface as [`StoreError::Io`]; a checksum
    /// mismatch as [`StoreError::Corrupt`]. A chunk is cached only
    /// after verification, so corrupt bytes are never served.
    fn chunk_data(&self, shard: usize, chunk: usize) -> Result<Arc<Vec<u8>>, StoreError> {
        let mut slot = self.cache[shard][chunk]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(data) = &*slot {
            self.chunk_cache_hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count(&telemetry::metrics::STORE_CHUNK_CACHE_HITS, 1);
            return Ok(Arc::clone(data));
        }
        let (off, len) = self.chunk_file_range(shard, chunk);
        let read = || -> Result<Vec<u8>, StoreError> {
            fp_hit("store-chunk-read");
            let mut buf = vec![0_u8; len];
            let mut file = self
                .file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            file.seek(SeekFrom::Start(off))?;
            file.read_exact(&mut buf)
                .map_err(|_| StoreError::Truncated {
                    context: format!("shard {shard} chunk {chunk}"),
                })?;
            Ok(buf)
        };
        let buf = match catch_unwind(AssertUnwindSafe(read)) {
            Ok(res) => res?,
            Err(payload) => {
                return Err(StoreError::Io {
                    context: format!("store-chunk-read fault: {}", panic_message(&*payload)),
                })
            }
        };
        if xxh64(&buf, CHUNK_SEED) != self.shards[shard].chunk_sums[chunk] {
            self.note_verify_failure(shard, chunk);
            return Err(StoreError::Corrupt { shard, chunk });
        }
        self.chunks_loaded.fetch_add(1, Ordering::Relaxed);
        telemetry::count(&telemetry::metrics::STORE_CHUNKS_LOADED, 1);
        let data = Arc::new(buf);
        *slot = Some(Arc::clone(&data));
        Ok(data)
    }

    /// Materializes entry `input_index` as a validated [`PackedSeq`],
    /// loading (and verifying) exactly the chunks its bytes span. The
    /// `store-mmap` failpoint sits at the top — the mapping-failure
    /// injection site.
    ///
    /// # Panics
    ///
    /// Panics if `input_index >= self.len()`.
    pub fn entry(&self, input_index: usize) -> Result<PackedSeq<S>, StoreError> {
        let (shard, pos) = self.input_map[input_index];
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| fp_hit("store-mmap"))) {
            return Err(StoreError::Io {
                context: format!("store-mmap fault: {}", panic_message(&*payload)),
            });
        }
        let meta = &self.shards[shard].entries[pos];
        let per_word = PackedSeq::<S>::symbols_per_word();
        let word_count = meta.len.div_ceil(per_word);
        let start = meta.byte_off as usize;
        let mut bytes = Vec::with_capacity(word_count * 8);
        let mut chunk = start / self.chunk_size;
        let mut pos_in = start % self.chunk_size;
        while bytes.len() < word_count * 8 {
            let data = self.chunk_data(shard, chunk)?;
            let take = (word_count * 8 - bytes.len()).min(data.len() - pos_in);
            bytes.extend_from_slice(&data[pos_in..pos_in + take]);
            chunk += 1;
            pos_in = 0;
        }
        let words: Vec<u64> = bytes.chunks_exact(8).map(read_u64_le).collect();
        PackedSeq::try_from_words(words, meta.len).map_err(|_| {
            // A checksum-clean chunk decoding to invalid codes means the
            // manifest and payload disagree: attribute it to the entry's
            // first chunk like any other payload corruption.
            let chunk = start / self.chunk_size;
            self.note_verify_failure(shard, chunk);
            StoreError::Corrupt { shard, chunk }
        })
    }

    /// Accounts one integrity failure: the per-store counter, the global
    /// registry, the flight ring, and an automatic `"corrupt"` dump so the
    /// post-mortem window is captured at detection time.
    fn note_verify_failure(&self, shard: usize, chunk: usize) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        telemetry::count(&telemetry::metrics::STORE_VERIFY_FAILURES, 1);
        flight::record_corrupt(shard as u64, chunk as u64);
        flight::dump("corrupt");
    }
}

/// A scan target: a primary [`PackedStore`] plus optional redundant
/// replicas. When a shard of the primary fails verification (or read),
/// the same entries are served from the first healthy replica — the
/// first rung of the quarantine/degradation ladder (see
/// `docs/ROBUSTNESS.md`). Replicas must carry the *same content hash*
/// as the primary, so a fallback can never silently change the answer.
#[derive(Debug)]
pub struct StoreTarget<S: Symbol> {
    primary: Arc<PackedStore<S>>,
    replicas: Vec<Arc<PackedStore<S>>>,
}

impl<S: Symbol> StoreTarget<S> {
    /// A target with no replicas: corrupt shards degrade straight to
    /// faulted (retryable) pairs.
    #[must_use]
    pub fn new(primary: Arc<PackedStore<S>>) -> Self {
        StoreTarget {
            primary,
            replicas: Vec::new(),
        }
    }

    /// Adds a redundant replica. Rejected unless its content hash
    /// matches the primary's (a replica of *different* content could
    /// silently change scan results).
    pub fn with_replica(mut self, replica: Arc<PackedStore<S>>) -> Result<Self, StoreError> {
        if replica.content_hash() != self.primary.content_hash() {
            return Err(StoreError::ContentHashMismatch {
                expected: self.primary.content_hash(),
                found: replica.content_hash(),
            });
        }
        self.replicas.push(replica);
        Ok(self)
    }

    /// The primary store.
    #[must_use]
    pub fn store(&self) -> &PackedStore<S> {
        &self.primary
    }

    /// Configured replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The shared content hash of primary and replicas.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.primary.content_hash()
    }
}

/// Kept with its signature because the benchmark harness (`perfbench/`)
/// calls it: the admission estimate of a store-backed scan over the
/// pending entries `ids` (or the whole store for `None`), priced purely
/// from manifest lengths — zero payload chunks are touched, so a cold
/// service can admit or refuse queries without a single page fault
/// (regression-tested via [`PackedStore::chunks_loaded`]).
#[must_use]
pub fn estimate_store_scan_cells<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    store: &PackedStore<S>,
    ids: Option<&[usize]>,
) -> u64 {
    price_cells(cfg, query.len(), store.len(), ids, |i| store.entry_len(i))
}

/// Kept with its signature because the benchmark harness (`perfbench/`)
/// calls it: a fresh [`scan`] over a store target. Hits and ledger
/// entries are reported in the caller's *original input index* space,
/// so over a healthy store the result is byte-identical to the
/// in-memory scan of the same entries (property-tested); the returned
/// token is bound to the store's content hash.
pub fn scan_store_topk_resumable<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    target: &StoreTarget<S>,
    k: usize,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<(ScanOutcome, Option<ResumeToken>), AlignError> {
    scan(
        cfg,
        query,
        ScanEntries::Store(target),
        k,
        None,
        workers,
        ctrl,
    )
}

/// What [`materialize_pending`] hands back: the materialized
/// `(input index, sequence)` pairs, the ledger faults, and the input
/// indices lost to quarantine.
type Materialized<S> = (Vec<(usize, PackedSeq<S>)>, Vec<Fault>, Vec<usize>);

/// Materializes the pending entries of one scan segment, shard group by
/// shard group, applying the quarantine ladder: primary → first healthy
/// replica → faulted (retryable). Each group's load is traced (with the
/// chunk-load / cache-hit deltas it caused) into `ctrl`'s timeline, and
/// an unrecovered quarantine triggers a flight-recorder dump. The
/// store-specific step of [`scan`]'s segment runner.
pub(crate) fn materialize_pending<S: Symbol>(
    target: &StoreTarget<S>,
    ids: &[usize],
    ctrl: &ScanControl,
) -> Materialized<S> {
    let mut out: Vec<(usize, PackedSeq<S>)> = Vec::with_capacity(ids.len());
    let mut faults: Vec<Fault> = Vec::new();
    let mut lost: Vec<usize> = Vec::new();

    // Group the pending ids by primary shard so one corrupt chunk
    // quarantines exactly its shard's pending pairs, with one ledger
    // entry per shard (BTreeMap: deterministic shard order).
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &id in ids {
        groups
            .entry(target.store().shard_of(id))
            .or_default()
            .push(id);
    }

    for (shard, members) in groups {
        let loads_before = target.store().chunks_loaded();
        let hits_before = target.store().chunk_cache_hits();
        let mut group_out = Vec::with_capacity(members.len());
        let mut primary_err = None;
        for &id in &members {
            match target.store().entry(id) {
                Ok(seq) => group_out.push((id, seq)),
                Err(e) => {
                    primary_err = Some(e);
                    break;
                }
            }
        }
        let Some(err) = primary_err else {
            ctrl.trace(|| TraceEvent::StoreShardLoaded {
                shard: shard as u64,
                entries: group_out.len() as u64,
                chunks_loaded: target.store().chunks_loaded() - loads_before,
                cache_hits: target.store().chunk_cache_hits() - hits_before,
            });
            out.append(&mut group_out);
            continue;
        };
        telemetry::count(&telemetry::metrics::STORE_QUARANTINES, 1);
        // Quarantine: discard everything this shard already yielded
        // (its payload is suspect as a unit) and try each replica for
        // the whole group.
        let mut served = None;
        for (ri, replica) in target.replicas.iter().enumerate() {
            let attempt: Result<Vec<_>, StoreError> = members
                .iter()
                .map(|&id| replica.entry(id).map(|seq| (id, seq)))
                .collect();
            if let Ok(seqs) = attempt {
                served = Some((ri, seqs));
                break;
            }
        }
        match served {
            Some((ri, mut seqs)) => {
                ctrl.trace(|| TraceEvent::StoreQuarantine {
                    shard: shard as u64,
                    recovered: true,
                });
                faults.push(Fault::new(
                    "store-chunk-read",
                    members.clone(),
                    true,
                    format!("shard {shard} quarantined ({err}); served by replica {ri}"),
                ));
                out.append(&mut seqs);
            }
            None => {
                ctrl.trace(|| TraceEvent::StoreQuarantine {
                    shard: shard as u64,
                    recovered: false,
                });
                telemetry::count(&telemetry::metrics::WORKER_FAULTS, members.len() as u64);
                faults.push(Fault::new(
                    "store-chunk-read",
                    members.clone(),
                    false,
                    format!("shard {shard} quarantined ({err}); no healthy replica"),
                ));
                lost.extend(members);
                flight::dump("worker-fault");
            }
        }
    }
    (out, faults, lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_reference_vectors() {
        // Reference vectors of the canonical xxHash64 implementation.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        // Seeded vector (python-xxhash documentation example).
        assert_eq!(xxh64(b"xxhash", 20141025), 13067679811253438005);
    }

    #[test]
    fn xxh64_covers_every_tail_length() {
        // All length classes: >=32 loop, 8-byte, 4-byte, single-byte
        // tails — distinct inputs hash distinctly, same input stably.
        let data: Vec<u8> = (0_u16..100).map(|i| (i * 31 % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for l in 0..data.len() {
            let h = xxh64(&data[..l], 7);
            assert_eq!(h, xxh64(&data[..l], 7));
            seen.insert(h);
        }
        assert_eq!(seen.len(), data.len(), "no trivial collisions");
    }

    #[test]
    fn store_error_displays() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::Io {
                    context: "x".into(),
                },
                "I/O",
            ),
            (StoreError::BadMagic { found: 1 }, "magic"),
            (StoreError::UnsupportedVersion { found: 9 }, "version 9"),
            (StoreError::EndiannessMismatch, "byte order"),
            (
                StoreError::AlphabetMismatch { bits: 5, count: 20 },
                "alphabet",
            ),
            (StoreError::HeaderCorrupt { reason: "r".into() }, "header"),
            (
                StoreError::ManifestCorrupt { reason: "r".into() },
                "manifest",
            ),
            (
                StoreError::ContentHashMismatch {
                    expected: 1,
                    found: 2,
                },
                "content hash",
            ),
            (
                StoreError::Corrupt { shard: 3, chunk: 4 },
                "shard 3, chunk 4",
            ),
            (
                StoreError::Truncated {
                    context: "c".into(),
                },
                "truncated",
            ),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }
}
