//! On-chip interconnect models: shared bus and 2-D mesh NoC.
//!
//! Section II of the paper calls for a *"scalable, fast and low-latency chip
//! interconnect"* and argues that centralized constructs (a single shared
//! bus) inhibit scalability. The platform provides both so the claim can be
//! measured: a [`Bus`] serializes all traffic through one arbiter, while a
//! [`Mesh`] routes packets over per-link resources using dimension-ordered
//! (XY) routing, so disjoint paths proceed in parallel.
//!
//! Both models are *occupancy based*: each shared resource remembers when it
//! becomes free (`busy_until`); a transfer starting at `now` is delayed to
//! `max(now, busy_until)` and then occupies the resource for its service
//! time. This captures queueing contention without simulating individual
//! flits, which is accurate enough for the scheduling-level experiments and
//! keeps the simulator fast and deterministic.

use crate::time::Time;
use mpsoc_snapshot::{Reader, SnapError, SnapResult, Snapshot as _, Writer};

/// The interconnect carrying memory transactions from an initiator (core or
/// DMA) to the shared memory / a remote node: one of the two models, chosen
/// by the platform's configuration.
#[derive(Debug)]
pub enum Interconnect {
    /// One shared bus.
    Bus(Bus),
    /// A 2-D mesh.
    Mesh(Mesh),
}

impl Clone for Interconnect {
    fn clone(&self) -> Self {
        match self {
            Interconnect::Bus(b) => Interconnect::Bus(b.clone()),
            Interconnect::Mesh(m) => Interconnect::Mesh(m.clone()),
        }
    }
    // A mesh copied over a mesh keeps its link table's buffer.
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (Interconnect::Mesh(m), Interconnect::Mesh(src)) => m.clone_from(src),
            (this, src) => *this = src.clone(),
        }
    }
}

impl Interconnect {
    /// Computes the completion time of a single-word transfer from node
    /// `from` to node `to` that becomes ready at `now`, updating internal
    /// contention state.
    pub(crate) fn transfer(&mut self, from: usize, to: usize, now: Time) -> Time {
        match self {
            Interconnect::Bus(b) => b.transfer(now),
            Interconnect::Mesh(m) => m.transfer(from, to, now),
        }
    }

    /// Total number of transfers carried.
    pub(crate) fn transfers(&self) -> u64 {
        match self {
            Interconnect::Bus(b) => b.transfers,
            Interconnect::Mesh(m) => m.transfers,
        }
    }

    /// Accumulated queueing delay (waiting for busy resources), summed over
    /// all transfers.
    pub(crate) fn total_contention(&self) -> Time {
        match self {
            Interconnect::Bus(b) => b.contention,
            Interconnect::Mesh(m) => m.contention,
        }
    }

    /// Serializes the interconnect — configuration *and* in-flight
    /// occupancy state (busy-until times) — prefixed with a type tag for
    /// [`load_interconnect`].
    pub(crate) fn snap_save(&self, w: &mut Writer) {
        match self {
            Interconnect::Bus(b) => {
                w.put_u8(SNAP_TAG_BUS);
                b.latency.save(w);
                b.occupancy.save(w);
                b.busy_until.save(w);
                w.put_u64(b.transfers);
                b.contention.save(w);
            }
            Interconnect::Mesh(m) => {
                w.put_u8(SNAP_TAG_MESH);
                w.put_usize(m.w);
                w.put_usize(m.h);
                m.hop_latency.save(w);
                m.link_occupancy.save(w);
                m.links.save(w);
                w.put_u64(m.transfers);
                m.contention.save(w);
            }
        }
    }
}

/// Type tag for a serialized [`Bus`].
const SNAP_TAG_BUS: u8 = 0;
/// Type tag for a serialized [`Mesh`].
const SNAP_TAG_MESH: u8 = 1;

/// Rebuilds an interconnect from the tagged encoding a checkpoint image
/// holds. A bus is built without allocating, a mesh allocates its link
/// table.
///
/// # Errors
///
/// Returns [`mpsoc_snapshot::SnapError`] on an unknown tag or malformed
/// payload.
pub fn load_interconnect(r: &mut Reader<'_>) -> SnapResult<Interconnect> {
    match r.get_u8()? {
        SNAP_TAG_BUS => Ok(Interconnect::Bus(Bus {
            latency: Time::load(r)?,
            occupancy: Time::load(r)?,
            busy_until: Time::load(r)?,
            transfers: r.get_u64()?,
            contention: Time::load(r)?,
        })),
        SNAP_TAG_MESH => {
            let w = r.get_usize()?;
            let h = r.get_usize()?;
            if w == 0 || h == 0 {
                return Err(SnapError::Malformed(
                    "mesh dimensions must be non-zero".into(),
                ));
            }
            let hop_latency = Time::load(r)?;
            let link_occupancy = Time::load(r)?;
            let links = Vec::<Time>::load(r)?;
            if links.len() != w * h * 4 {
                return Err(SnapError::Malformed(format!(
                    "mesh link table has {} entries, expected {}",
                    links.len(),
                    w * h * 4
                )));
            }
            Ok(Interconnect::Mesh(Mesh {
                w,
                h,
                hop_latency,
                link_occupancy,
                links,
                transfers: r.get_u64()?,
                contention: Time::load(r)?,
            }))
        }
        tag => Err(SnapError::BadTag {
            what: "interconnect",
            tag: u64::from(tag),
        }),
    }
}

/// A single shared bus with one arbiter.
///
/// Every transfer, regardless of endpoints, occupies the bus for
/// `occupancy`; the end-to-end latency of an uncontended transfer is
/// `latency`.
#[derive(Debug, Clone)]
pub struct Bus {
    latency: Time,
    occupancy: Time,
    busy_until: Time,
    transfers: u64,
    contention: Time,
}

impl Bus {
    /// Creates a bus with the given uncontended latency and per-transfer
    /// occupancy (the serialization bottleneck).
    pub fn new(latency: Time, occupancy: Time) -> Self {
        Bus {
            latency,
            occupancy,
            busy_until: Time::ZERO,
            transfers: 0,
            contention: Time::ZERO,
        }
    }

    /// A transfer ready at `now`, whatever its endpoints: waits for the
    /// arbiter, occupies the bus, completes one latency later.
    fn transfer(&mut self, now: Time) -> Time {
        let start = now.max(self.busy_until);
        self.contention += start.saturating_sub(now);
        self.busy_until = start + self.occupancy;
        self.transfers += 1;
        start + self.latency
    }
}

/// A `w × h` 2-D mesh with XY (dimension-ordered) routing.
///
/// Node `i` sits at `(i % w, i / w)`. A transfer first travels along X, then
/// along Y; each hop pays `hop_latency` and occupies the traversed
/// directed link for `link_occupancy`. Node indices ≥ `w*h` (e.g. the
/// shared-memory controller) are mapped onto the last node.
#[derive(Debug)]
pub struct Mesh {
    w: usize,
    h: usize,
    hop_latency: Time,
    link_occupancy: Time,
    /// busy-until per directed link, indexed by `link_index`.
    links: Vec<Time>,
    transfers: u64,
    contention: Time,
}

impl Clone for Mesh {
    fn clone(&self) -> Self {
        let mut m = Mesh::new(1, 1, self.hop_latency, self.link_occupancy);
        m.clone_from(self);
        m
    }
    fn clone_from(&mut self, src: &Self) {
        let Mesh {
            w,
            h,
            hop_latency,
            link_occupancy,
            links,
            transfers,
            contention,
        } = src;
        self.w = *w;
        self.h = *h;
        self.hop_latency = *hop_latency;
        self.link_occupancy = *link_occupancy;
        self.links.clone_from(links);
        self.transfers = *transfers;
        self.contention = *contention;
    }
}

impl Mesh {
    /// Creates a `w × h` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is zero.
    pub fn new(w: usize, h: usize, hop_latency: Time, link_occupancy: Time) -> Self {
        assert!(w > 0 && h > 0, "mesh dimensions must be non-zero");
        // 4 directed links per node is an upper bound; unused slots are free.
        Mesh {
            w,
            h,
            hop_latency,
            link_occupancy,
            links: vec![Time::ZERO; w * h * 4],
            transfers: 0,
            contention: Time::ZERO,
        }
    }

    fn clamp(&self, node: usize) -> (usize, usize) {
        let n = node.min(self.w * self.h - 1);
        (n % self.w, n / self.w)
    }

    /// Directed link leaving `(x, y)` in `dir` (0=E, 1=W, 2=N, 3=S).
    fn link_index(&self, x: usize, y: usize, dir: usize) -> usize {
        (y * self.w + x) * 4 + dir
    }

    /// Number of hops between two nodes under XY routing.
    pub(crate) fn hops(&self, from: usize, to: usize) -> usize {
        let (fx, fy) = self.clamp(from);
        let (tx, ty) = self.clamp(to);
        fx.abs_diff(tx) + fy.abs_diff(ty)
    }

    /// A transfer from node `from` to node `to` ready at `now`, hop by hop.
    fn transfer(&mut self, from: usize, to: usize, now: Time) -> Time {
        let (mut x, mut y) = self.clamp(from);
        let (tx, ty) = self.clamp(to);
        let mut t = now;
        self.transfers += 1;
        // Route X first, then Y — the canonical deadlock-free XY order.
        while x != tx {
            let dir = if tx > x { 0 } else { 1 };
            let li = self.link_index(x, y, dir);
            let start = t.max(self.links[li]);
            self.contention += start.saturating_sub(t);
            self.links[li] = start + self.link_occupancy;
            t = start + self.hop_latency;
            if tx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != ty {
            let dir = if ty > y { 3 } else { 2 };
            let li = self.link_index(x, y, dir);
            let start = t.max(self.links[li]);
            self.contention += start.saturating_sub(t);
            self.links[li] = start + self.link_occupancy;
            t = start + self.hop_latency;
            if ty > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
        if self.hops(from, to) == 0 {
            // Local access still pays one router traversal.
            t += self.hop_latency;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    fn bus(latency: u64, occupancy: u64) -> Interconnect {
        Interconnect::Bus(Bus::new(ps(latency), ps(occupancy)))
    }

    fn mesh(w: usize, h: usize, hop: u64, occupancy: u64) -> Interconnect {
        Interconnect::Mesh(Mesh::new(w, h, ps(hop), ps(occupancy)))
    }

    #[test]
    fn bus_serializes_back_to_back_transfers() {
        let mut b = bus(100, 50);
        let t1 = b.transfer(0, 9, Time::ZERO);
        let t2 = b.transfer(1, 9, Time::ZERO);
        assert_eq!(t1, ps(100));
        // Second transfer waits for the 50 ps occupancy, then pays latency.
        assert_eq!(t2, ps(150));
        assert_eq!(b.total_contention(), ps(50));
        assert_eq!(b.transfers(), 2);
    }

    #[test]
    fn bus_idle_transfer_pays_only_latency() {
        let mut b = bus(100, 50);
        let t = b.transfer(2, 3, ps(1_000));
        assert_eq!(t, ps(1_100));
        assert_eq!(b.total_contention(), Time::ZERO);
    }

    #[test]
    fn mesh_latency_scales_with_hops() {
        let m = Mesh::new(4, 4, ps(10), ps(5));
        assert_eq!(m.hops(0, 3), 3);
        assert_eq!(m.hops(0, 15), 6);
        let t = Interconnect::Mesh(m).transfer(0, 3, Time::ZERO);
        assert_eq!(t, ps(30)); // 3 hops * 10
    }

    #[test]
    fn mesh_disjoint_paths_do_not_contend() {
        let mut m = mesh(4, 1, 10, 10);
        // 0 -> 1 and 2 -> 3 share no directed link.
        let t1 = m.transfer(0, 1, Time::ZERO);
        let t2 = m.transfer(2, 3, Time::ZERO);
        assert_eq!(t1, ps(10));
        assert_eq!(t2, ps(10));
        assert_eq!(m.total_contention(), Time::ZERO);
    }

    #[test]
    fn mesh_shared_link_contends() {
        let mut m = mesh(4, 1, 10, 10);
        // Both go east out of node 0.
        let t1 = m.transfer(0, 1, Time::ZERO);
        let t2 = m.transfer(0, 2, Time::ZERO);
        assert_eq!(t1, ps(10));
        // Second waits 10 for the 0->1 link, then 2 hops.
        assert_eq!(t2, ps(30));
        assert_eq!(m.total_contention(), ps(10));
    }

    #[test]
    fn mesh_local_access_pays_router() {
        let mut m = mesh(2, 2, 7, 1);
        assert_eq!(m.transfer(1, 1, Time::ZERO), ps(7));
    }

    #[test]
    fn mesh_clamps_out_of_range_nodes() {
        let m = Mesh::new(2, 2, ps(10), ps(1));
        // Node 99 behaves as node 3 (the memory controller corner).
        assert_eq!(m.hops(0, 99), 2);
        let t = Interconnect::Mesh(m).transfer(0, 99, Time::ZERO);
        assert_eq!(t, ps(20));
    }

    #[test]
    fn bus_beats_mesh_locally_mesh_wins_under_load() {
        // A sanity check of the scalability claim in Section II.A: under
        // heavy parallel traffic the mesh accumulates less contention.
        let mut bus = bus(20, 20);
        let mut mesh = mesh(4, 4, 10, 10);
        for i in 0..16usize {
            bus.transfer(i, 15, Time::ZERO);
            mesh.transfer(i, (i + 1) % 16, Time::ZERO);
        }
        assert!(mesh.total_contention() < bus.total_contention());
    }
}
