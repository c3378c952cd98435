//! Ring cache configuration (paper §6.1 default parameters and the §6.3
//! sensitivity sweep axes).

use serde::{Deserialize, Serialize};

/// Cache-array geometry of one ring node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Total capacity in bytes, or `None` for an unbounded array
    /// (the "Unbounded" point of Fig. 11d).
    pub capacity: Option<u64>,
    /// Set associativity.
    pub assoc: usize,
    /// Line size in bytes. The paper keeps this at one machine word to
    /// rule out false sharing (§5.1); the line-size ablation widens it.
    pub line: u64,
}

impl ArrayConfig {
    /// The paper's default: 1 KB, 8-way, one-word lines.
    pub fn paper_default() -> ArrayConfig {
        ArrayConfig {
            capacity: Some(1024),
            assoc: 8,
            line: 8,
        }
    }

    /// Number of sets implied by the geometry (1 when unbounded).
    pub fn sets(&self) -> usize {
        match self.capacity {
            None => 1,
            Some(cap) => {
                let lines = (cap / self.line).max(1) as usize;
                (lines / self.assoc).max(1)
            }
        }
    }
}

/// Full ring-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingConfig {
    /// Number of ring nodes (== cores).
    pub nodes: usize,
    /// Cycles for one node-to-node hop (Fig. 11b sweeps 1..32).
    pub hop_latency: u32,
    /// Cycles from a core to its ring node (paper: 2, to keep the
    /// core-to-L1 path intact).
    pub injection_latency: u32,
    /// Words of data a link moves per cycle (paper: 1 suffices).
    pub data_bandwidth: u32,
    /// Signals a link moves per cycle; `None` = unbounded (Fig. 11c).
    pub signal_bandwidth: Option<u32>,
    /// Link buffer entries per node (credit-based flow control; the
    /// paper requires at least two for forward progress).
    pub link_buffers: usize,
    /// Per-core injection queue depth (stores/signals buffered between
    /// core and node before backpressure).
    pub injection_queue: usize,
    /// Cycles for the owner node to access its private L1 when servicing
    /// a ring miss or eviction write-back.
    pub l1_service_latency: u32,
    /// Node cache-array geometry.
    pub array: ArrayConfig,
    /// Whether idle ticks may take the O(1) next-event short-circuit
    /// instead of walking the nodes. Never observable in results — it
    /// only changes how much work a no-op tick costs — but the
    /// simulator's naive reference mode (`without_fast_forward`) turns
    /// it off so the per-cycle baseline it measures stays a true
    /// per-cycle loop.
    pub event_skip: bool,
}

impl RingConfig {
    /// The paper's default configuration for `nodes` cores (§6.1):
    /// 1 KB 8-way arrays, one-word data bandwidth, five-signal
    /// bandwidth, single-cycle hops, two-cycle injection.
    pub fn paper_default(nodes: usize) -> RingConfig {
        RingConfig {
            nodes,
            hop_latency: 1,
            injection_latency: 2,
            data_bandwidth: 1,
            signal_bandwidth: Some(5),
            link_buffers: 4,
            injection_queue: 8,
            l1_service_latency: 3,
            array: ArrayConfig::paper_default(),
            event_skip: true,
        }
    }

    /// Owner node of an address: a simple bit-mask hash over the 64-byte
    /// L1-line address, so all words of an L1 line share an owner and the
    /// coherence protocol is never triggered (§6.1).
    pub fn owner_of(&self, addr: u64) -> usize {
        ((addr >> 6) as usize) & (self.nodes - 1)
    }

    /// Hops from `from` to `to` along the (unidirectional) ring.
    pub fn distance(&self, from: usize, to: usize) -> usize {
        (to + self.nodes - from) % self.nodes
    }

    /// Validate the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two in `1..=65536` (ring
    /// messages carry node ids as `u16`) or buffers < 2.
    pub fn assert_valid(&self) {
        assert!(self.nodes >= 1 && self.nodes.is_power_of_two());
        assert!(self.nodes <= 1 << 16, "ring node ids are u16");
        assert!(self.link_buffers >= 2, "flow control needs >= 2 buffers");
        assert!(self.hop_latency >= 1);
        assert!(self.data_bandwidth >= 1);
        assert!(self.array.line >= 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let c = ArrayConfig::paper_default();
        assert_eq!(c.sets(), 16); // 1024 / 8 bytes / 8 ways
        let r = RingConfig::paper_default(16);
        r.assert_valid();
    }

    #[test]
    fn owner_shares_l1_line() {
        let r = RingConfig::paper_default(16);
        let base = 0x1_0000;
        let owner = r.owner_of(base);
        for w in 0..8 {
            assert_eq!(r.owner_of(base + w * 8), owner);
        }
        assert_ne!(r.owner_of(base), r.owner_of(base + 64));
    }

    #[test]
    fn ring_distance() {
        let r = RingConfig::paper_default(8);
        assert_eq!(r.distance(0, 1), 1);
        assert_eq!(r.distance(1, 0), 7);
        assert_eq!(r.distance(3, 3), 0);
    }

    #[test]
    #[should_panic(expected = "buffers")]
    fn too_few_buffers_rejected() {
        let mut r = RingConfig::paper_default(4);
        r.link_buffers = 1;
        r.assert_valid();
    }

    #[test]
    fn unbounded_array_single_set() {
        let c = ArrayConfig {
            capacity: None,
            assoc: 8,
            line: 8,
        };
        assert_eq!(c.sets(), 1);
    }
}
