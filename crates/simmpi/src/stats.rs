//! Per-rank accounting of simulated work and communication.

use serde::{Deserialize, Serialize};

/// Counters a rank accumulates while executing under the simulator.
///
/// `compute_time + comm_time` need not equal the final clock exactly:
/// `comm_time` counts only the clock advance attributable to waiting for and
/// unpacking messages, while explicit [`crate::SimComm::advance`] calls (used
/// by schedulers) are tracked separately in `other_time`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Modeled payload bytes sent.
    pub bytes_sent: f64,
    /// Messages received.
    pub msgs_received: u64,
    /// Modeled payload bytes received.
    pub bytes_received: f64,
    /// Floating-point operations executed (modeled).
    pub flops: f64,
    /// Memory-traffic bytes executed (modeled).
    pub mem_bytes: f64,
    /// Simulated seconds spent in compute.
    pub compute_time: f64,
    /// Simulated seconds of clock advance caused by communication
    /// (send overheads plus receive waits).
    pub comm_time: f64,
    /// Simulated seconds injected via `advance`.
    pub other_time: f64,
}

impl CommStats {
    /// Merges another rank's counters into this one (for job-level totals).
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_received += other.msgs_received;
        self.bytes_received += other.bytes_received;
        self.flops += other.flops;
        self.mem_bytes += other.mem_bytes;
        self.compute_time += other.compute_time;
        self.comm_time += other.comm_time;
        self.other_time += other.other_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats {
            msgs_sent: 2,
            bytes_sent: 100.0,
            compute_time: 1.0,
            ..Default::default()
        };
        let b = CommStats {
            msgs_sent: 3,
            bytes_sent: 50.0,
            comm_time: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 5);
        assert_eq!(a.bytes_sent, 150.0);
        assert_eq!(a.compute_time, 1.0);
        assert_eq!(a.comm_time, 0.5);
    }
}
