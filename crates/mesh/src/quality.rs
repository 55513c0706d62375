//! Partition quality: the paper's load-balance criterion.
//!
//! "The load is measured as the number of mesh elements assigned to each
//! process" — this is the one quality measure the partitioner tests hold
//! every partitioner to.

/// Load imbalance of a cell-to-part assignment: `max_load / mean_load`.
/// 1.0 is perfect balance. Parts with no cells are still counted.
pub fn load_imbalance(assignment: &[usize], num_parts: usize) -> f64 {
    assert!(num_parts > 0);
    let mut loads = vec![0usize; num_parts];
    for &p in assignment {
        loads[p] += 1;
    }
    let max = *loads.iter().max().unwrap() as f64;
    let mean = assignment.len() as f64 / num_parts as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_balance() {
        let asg = vec![0, 0, 1, 1, 2, 2, 3, 3];
        assert_eq!(load_imbalance(&asg, 4), 1.0);
    }

    #[test]
    fn skewed_balance() {
        let asg = vec![0, 0, 0, 1];
        assert_eq!(load_imbalance(&asg, 2), 1.5);
    }

    #[test]
    fn empty_part_counts_in_imbalance() {
        let asg = vec![0, 0, 0, 0];
        assert_eq!(load_imbalance(&asg, 2), 2.0);
    }
}
