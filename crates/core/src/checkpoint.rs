//! Deterministic checkpoint artifacts and the tool built on them: the
//! on-disk snapshot container ([`Checkpoint`]), the design fingerprint that
//! guards restores, and the divergence bisector ([`bisect_divergence`]).
//!
//! The snapshot payload itself is assembled and parsed by [`Sim::snapshot`]
//! and [`Sim::restore`] in [`crate::sim`] — the only module that can see the
//! simulator's private state. This module owns everything *around* the
//! payload: container I/O, identity, and bisection.

use std::fmt;
use std::io;
use std::path::Path;

use svmsyn_sim::Cycle;

use crate::flow::SystemDesign;
use crate::sim::{Sim, SimConfig, SimError, SNAPSHOT_VERSION};

/// A serialized simulator snapshot: the complete on-disk image (magic,
/// version, design fingerprint, payload, checksum trailer).
///
/// A `Checkpoint` is opaque bytes until [`Sim::restore`] validates it;
/// constructing one from arbitrary bytes is safe — corrupt or mismatched
/// images are rejected there with a typed [`svmsyn_snap::SnapError`], never
/// a panic or a silent misparse.
#[derive(Clone, PartialEq, Eq)]
pub struct Checkpoint {
    image: Vec<u8>,
}

impl Checkpoint {
    /// Wraps raw image bytes. No validation happens here — restore does it.
    pub fn from_bytes(image: Vec<u8>) -> Checkpoint {
        Checkpoint { image }
    }

    /// The full image: header, payload, and checksum trailer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// Whether the image is empty (never true for a real snapshot).
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// Writes the image to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, &self.image)
    }

    /// Reads an image from `path`. The contents are validated at restore,
    /// not here, so a truncated file still loads — and is then rejected
    /// with a typed error.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn read_from(path: &Path) -> io::Result<Checkpoint> {
        Ok(Checkpoint {
            image: std::fs::read(path)?,
        })
    }
}

impl fmt::Debug for Checkpoint {
    /// Length only: dumping megabytes of image bytes into assertion output
    /// would bury the interesting part of every failure message.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Checkpoint({} bytes)", self.image.len())
    }
}

/// Fingerprint of everything a snapshot's bytes depend on: the application,
/// the placement vector, and the timing-relevant platform axes (fabric,
/// memory system, HLS, MEMIF). The OS config is deliberately *excluded* —
/// its costs and policies are re-read from the design at restore, which is
/// exactly what lets [`bisect_divergence`] restore one checkpoint under two
/// OS variants (say, two swap latencies) and find where they part.
/// `synthesis_seconds` (host wall time) and the platform name are cosmetic
/// and excluded too.
pub(crate) fn design_fingerprint(design: &SystemDesign) -> u64 {
    use std::fmt::Write as _;
    let p = &design.platform;
    let mut s = String::new();
    let _ = write!(
        s,
        "{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}",
        design.app,
        design.placements,
        p.fabric,
        p.fabric_mhz,
        p.mem,
        p.hls,
        p.memif,
        p.max_hw_threads
    );
    svmsyn_snap::fnv1a(s.as_bytes())
}

/// One side of a divergence bisection: a checkpoint plus the design and
/// config its execution resumes under. The two sides of a bisection may
/// differ in config or in fingerprint-compatible platform variants (e.g.
/// two swap latencies) — that asymmetry is usually the divergence under
/// investigation.
#[derive(Clone, Copy)]
pub struct BisectSide<'a> {
    /// The design the checkpoint restores into.
    pub design: &'a SystemDesign,
    /// The simulation config the resumed execution runs under.
    pub cfg: &'a SimConfig,
    /// The starting snapshot.
    pub checkpoint: &'a Checkpoint,
}

/// The first divergence located by [`bisect_divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Last probed cycle at which the two executions' state digests agreed
    /// (equal to `first_diverge` when the checkpoints differ on arrival).
    pub last_agree: Cycle,
    /// First probed cycle at which the digests differed.
    pub first_diverge: Cycle,
    /// Side A's state digest at `first_diverge`.
    pub digest_a: u64,
    /// Side B's state digest at `first_diverge`.
    pub digest_b: u64,
}

/// State digest of `side`'s execution advanced to `cycle`: restore, run
/// until the next event would pass `cycle`, re-snapshot, and hash the
/// snapshot *payload* (container header excluded, so fingerprint-compatible
/// design variants compare by state alone).
///
/// # Errors
///
/// Returns [`SimError`] when the restore is rejected or the run fails.
pub fn digest_at(side: BisectSide<'_>, cycle: Cycle) -> Result<u64, SimError> {
    let mut sim = Sim::restore(side.design, side.cfg, side.checkpoint)?;
    sim.run_until(cycle)?;
    let cp = sim.snapshot();
    let (_, payload) = svmsyn_snap::read_image(cp.as_bytes(), SNAPSHOT_VERSION)
        .expect("a freshly taken snapshot is a valid image");
    Ok(svmsyn_snap::fnv1a(payload))
}

/// Binary-searches the first cycle window in which two executions diverge.
///
/// Both sides restore from their checkpoints and advance deterministically,
/// so "state at cycle `t`" is well-defined and repeatable; each probe is a
/// fresh restore-and-run to the probed cycle. If the digests still agree at
/// `horizon` the executions are identical over the whole range and `None`
/// is returned. Otherwise the result brackets the divergence: digests agree
/// at `last_agree`, differ at `first_diverge`, and no event fires between
/// the two (adjacent probe points under bisection).
///
/// # Errors
///
/// Returns [`SimError`] when a restore is rejected or a probe run fails.
pub fn bisect_divergence(
    a: BisectSide<'_>,
    b: BisectSide<'_>,
    horizon: Cycle,
) -> Result<Option<Divergence>, SimError> {
    if digest_at(a, horizon)? == digest_at(b, horizon)? {
        return Ok(None);
    }
    let start = Sim::restore(a.design, a.cfg, a.checkpoint)?.now();
    if digest_at(a, start)? != digest_at(b, start)? {
        // Diverged on arrival: the checkpoints themselves disagree.
        return Ok(Some(Divergence {
            last_agree: start,
            first_diverge: start,
            digest_a: digest_at(a, start)?,
            digest_b: digest_at(b, start)?,
        }));
    }
    // Invariant: digests agree at `lo`, differ at `hi`.
    let (mut lo, mut hi) = (start, horizon);
    while hi - lo > Cycle(1) {
        let mid = Cycle(lo.0 + (hi.0 - lo.0) / 2);
        if digest_at(a, mid)? == digest_at(b, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(Divergence {
        last_agree: lo,
        first_diverge: hi,
        digest_a: digest_at(a, hi)?,
        digest_b: digest_at(b, hi)?,
    }))
}
