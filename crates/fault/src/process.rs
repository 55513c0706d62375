//! Per-platform fault processes, all sampled by hashing the experiment
//! seed — the same mechanism (and guarantee) as network jitter: identical
//! seeds give identical fault schedules on any host.

use hetero_simmpi::fault::SlowWindow;
use hetero_simmpi::rng::{hash_msg, to_unit};
use serde::{Deserialize, Serialize};

// Distinct salts keep the fault streams independent of each other and of
// the message-jitter stream (which hashes rank pairs).
const SALT_SPIKE: u64 = 0x5107_0001;
const SALT_FACTOR: u64 = 0x5107_0002;
const SALT_CAPACITY: u64 = 0x5107_0003;
const SALT_SUB_EPOCH: u64 = 0x5107_0004;
const SALT_CRASH: u64 = 0xC4A5_0001;
const SALT_DEGRADE_GAP: u64 = 0xDE64_0001;

/// Epochs scanned before a spot market is declared fault-free for the run.
/// At 15-minute epochs this covers ~5.7 simulated years.
const MAX_EPOCHS: u64 = 200_000;

/// The spot-market revocation process: per-epoch price and capacity
/// redraws, with a revocation the first epoch where the price crosses the
/// bid or the capacity pool shrinks below the fleet's spot share.
///
/// This is the dynamic counterpart of `platform::spot::acquire_fleet`,
/// which draws capacity once at acquisition time; the market keeps drawing
/// every `epoch_seconds` thereafter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotMarket {
    /// Seconds between market redraws (EC2 repriced spot every few
    /// minutes; we default to 15-minute epochs).
    pub epoch_seconds: f64,
    /// Baseline spot price, $/node-hour.
    pub base_price: f64,
    /// The bid; a price above it revokes the fleet's spot share.
    pub max_bid: f64,
    /// Probability per epoch of a demand spike that sends the price past
    /// any reasonable bid.
    pub spike_probability: f64,
    /// Capacity pool redraw range (inclusive), in nodes — the pool
    /// `platform::spot` draws fleets from.
    pub capacity_range: (usize, usize),
}

impl SpotMarket {
    /// An EC2-like market: $0.54/node-h base (the paper's cc1.4xlarge spot
    /// price), 15-minute epochs, 6% spike chance per epoch, and the
    /// 40–60-node capacity pool the fleet acquisition draws from.
    pub fn ec2_like(max_bid: f64) -> Self {
        SpotMarket {
            epoch_seconds: 900.0,
            base_price: 0.54,
            max_bid,
            spike_probability: 0.06,
            capacity_range: (40, 60),
        }
    }

    /// Virtual time of the first revocation for a fleet holding
    /// `spot_nodes` spot nodes, or `None` if the market never revokes
    /// within the scan horizon (or the fleet holds no spot capacity).
    ///
    /// Epoch 0 is acquisition time (the fleet exists, so it survived it);
    /// scanning starts at epoch 1. The revocation lands at a hash-derived
    /// offset inside the epoch, so events do not pile up on epoch
    /// boundaries.
    ///
    /// Each epoch redraws the price (spikes multiply the base by 2–8x,
    /// calm epochs wander in [0.65, 1.35]x) and the capacity pool.
    pub fn first_revocation(&self, spot_nodes: usize, seed: u64) -> Option<f64> {
        if spot_nodes == 0 {
            return None;
        }
        let (lo, hi) = self.capacity_range;
        (1..=MAX_EPOCHS).find_map(|epoch| {
            let spike = to_unit(hash_msg(seed, SALT_SPIKE, epoch, 0)) < self.spike_probability;
            let u = to_unit(hash_msg(seed, SALT_FACTOR, epoch, 0));
            let factor = if spike { 2.0 + 6.0 * u } else { 0.65 + 0.7 * u };
            let revoked = self.base_price * factor > self.max_bid || {
                let u = to_unit(hash_msg(seed, SALT_CAPACITY, epoch, 0));
                lo + ((u * (hi - lo + 1) as f64) as usize) < spot_nodes
            };
            revoked.then(|| {
                let frac = to_unit(hash_msg(seed, SALT_SUB_EPOCH, epoch, 0));
                (epoch as f64 + frac) * self.epoch_seconds
            })
        })
    }
}

/// Per-node hardware crash process: exponential time-to-failure with a
/// per-platform MTBF, independently hashed per node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashProcess {
    /// Mean time between failures of one node, hours.
    pub node_mtbf_hours: f64,
}

impl CrashProcess {
    /// The earliest crash among `nodes` nodes within `horizon` seconds:
    /// `(node, time)`, or `None` if every node outlives the horizon. Each
    /// node's first crash time is an inverse-CDF sample of the exponential
    /// distribution.
    pub fn first_crash(&self, nodes: usize, horizon: f64, seed: u64) -> Option<(usize, f64)> {
        (0..nodes)
            .map(|n| {
                let u = to_unit(hash_msg(seed, SALT_CRASH, n as u64, 0));
                (n, -self.node_mtbf_hours * 3600.0 * (1.0 - u).ln())
            })
            .filter(|&(_, t)| t < horizon)
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }
}

/// Transient fabric-degradation process: exponentially spaced windows of
/// fixed length during which message transfers are slowed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationModel {
    /// Mean seconds between window starts.
    pub mean_interval_seconds: f64,
    /// Window length, seconds.
    pub duration_seconds: f64,
    /// Multiplicative slowdown on latency and drain (>= 1).
    pub slowdown: f64,
}

impl DegradationModel {
    /// The degradation windows starting within `horizon` seconds.
    pub fn windows(&self, horizon: f64, seed: u64) -> Vec<SlowWindow> {
        let mut out = Vec::new();
        let mut t = 0.0;
        for k in 0u64.. {
            let u = to_unit(hash_msg(seed, SALT_DEGRADE_GAP, k, 0));
            t += -self.mean_interval_seconds * (1.0 - u).ln();
            if t >= horizon {
                break;
            }
            out.push(SlowWindow {
                start: t,
                end: t + self.duration_seconds,
                factor: self.slowdown,
            });
        }
        out
    }
}

/// A platform's complete fault environment: what can go wrong during one
/// attempt of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultModel {
    /// Hardware crash process (`None` = crash-free hardware).
    pub crashes: Option<CrashProcess>,
    /// Spot-market revocation process (`None` = no spot exposure).
    pub spot: Option<SpotMarket>,
    /// Transient network-degradation process.
    pub degradation: Option<DegradationModel>,
}

impl FaultModel {
    /// The fault-free environment.
    pub fn none() -> Self {
        FaultModel::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn market_is_deterministic_and_seed_sensitive() {
        let m = SpotMarket::ec2_like(1.0);
        assert_eq!(m.first_revocation(50, 7), m.first_revocation(50, 7));
        // Different seeds move the revocation (50 spot nodes revoke within
        // a couple of epochs with overwhelming probability, so both exist).
        let a = m.first_revocation(50, 1).unwrap();
        let b = m.first_revocation(50, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn bigger_spot_share_revokes_sooner() {
        let m = SpotMarket::ec2_like(1.0);
        for seed in 0..20u64 {
            let small = m.first_revocation(10, seed).unwrap_or(f64::INFINITY);
            let large = m.first_revocation(55, seed).unwrap_or(f64::INFINITY);
            assert!(large <= small, "seed {seed}: {large} vs {small}");
        }
    }

    #[test]
    fn no_spot_nodes_no_revocation() {
        assert_eq!(SpotMarket::ec2_like(1.0).first_revocation(0, 3), None);
    }

    #[test]
    fn capacity_crossing_fires_even_under_an_infinite_bid() {
        // A fleet needing more than the pool's lower bound is revoked by a
        // capacity redraw alone.
        let m = SpotMarket {
            max_bid: f64::INFINITY,
            ..SpotMarket::ec2_like(1.0)
        };
        assert!(m.first_revocation(55, 11).is_some());
        // A fleet within the guaranteed pool floor never sees a capacity
        // revocation, and the infinite bid absorbs every spike.
        assert_eq!(m.first_revocation(40, 11), None);
    }

    #[test]
    fn crash_times_are_exponential_ish() {
        let c = CrashProcess {
            node_mtbf_hours: 100.0,
        };
        // Each seed's one-node fleet draws that node's first crash time.
        let n = 4000;
        let mean = (0..n)
            .map(|seed| c.first_crash(1, f64::INFINITY, seed).unwrap().1)
            .sum::<f64>()
            / n as f64;
        let expected = 100.0 * 3600.0;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn first_crash_respects_horizon() {
        let c = CrashProcess {
            node_mtbf_hours: 1000.0,
        };
        assert_eq!(c.first_crash(8, 0.0, 3), None);
        let (node, t) = c.first_crash(8, f64::INFINITY, 3).unwrap();
        assert!(node < 8);
        assert!(t > 0.0);
        // Tightening the horizon to just above the winner keeps it.
        assert_eq!(c.first_crash(8, t * 1.001, 3), Some((node, t)));
    }

    #[test]
    fn degradation_windows_fit_the_horizon() {
        let d = DegradationModel {
            mean_interval_seconds: 600.0,
            duration_seconds: 30.0,
            slowdown: 4.0,
        };
        let ws = d.windows(7200.0, 9);
        assert!(!ws.is_empty());
        for w in &ws {
            assert!(w.start < 7200.0);
            assert_eq!(w.end, w.start + 30.0);
            assert_eq!(w.factor, 4.0);
        }
        // Sorted by construction.
        for pair in ws.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }
}
