//! The one worker-pool primitive every parallel pipeline stage uses.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `0..len` on `workers` scoped threads, returning the
/// results in index order. `workers` is clamped to `[1, len]`; at 1
/// (or `len <= 1`) the map runs inline with no threads, no locks.
///
/// Workers pull indices off a shared atomic counter, so uneven task
/// costs self-balance. This is the single audited pool implementation
/// behind wave validation, the sharded parallel apply, and mempool
/// admission — keep it that way.
pub fn parallel_map<T, F>(len: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(len).max(1);
    if workers == 1 {
        return (0..len).map(f).collect();
    }

    // Each worker keeps the results it computed, tagged with their
    // index; a worker's panic resumes on the caller.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                        .take_while(|&slot| slot < len)
                        .map(|slot| (slot, f(slot)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(slot, _)| slot);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// Splits `items` into at most `workers` contiguous chunks and maps
/// them concurrently; returns the per-chunk results in order. This is
/// how the pooled signature batches fan out: one RLC equation per
/// chunk, and per-item verdicts, so the chunking never shows through.
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    parallel_map(chunks.len(), workers, |c| f(chunks[c]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let out = parallel_map(7, workers, |i| i * i);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "workers={workers}");
        }
    }

    #[test]
    fn empty_and_oversubscribed_inputs_are_fine() {
        assert!(parallel_map(0, 8, |i| i).is_empty());
        assert_eq!(parallel_map(1, 64, |i| i + 1), vec![1]);
    }

    #[test]
    fn chunks_are_contiguous_and_cover_the_input_once() {
        let items: Vec<usize> = (0..7).collect();
        for workers in [0, 1, 2, 3, 7, 20] {
            let chunks = map_chunks(&items, workers, <[usize]>::to_vec);
            assert!(chunks.len() <= workers.max(1), "workers={workers}");
            assert_eq!(chunks.concat(), items, "workers={workers}");
        }
        assert!(map_chunks(&[] as &[usize], 4, <[usize]>::to_vec).is_empty());
    }
}
