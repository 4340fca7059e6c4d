//! The one fork-join of the workspace.
//!
//! [`map`] runs a function over a list of items on the calling thread
//! plus scoped helpers, one per further core, and hands the results back
//! in item order. The library's fan-outs — the quality profile's noise
//! sweep, the cube build's dimension encoding and shards, and parallel
//! cross-validation folds — all go through it, so none of them depends
//! on which thread ran an item, and in a process pinned to one core
//! every item runs on the calling thread.

use std::panic;
use std::sync::{Mutex, OnceLock};

/// Cores this process may run on: `available_parallelism()` (which
/// honours the affinity mask), read once per process; 1 when unknown.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `f` applied to every item, the results in item order.
///
/// The calling thread and `min(items, cores()) − 1` scoped helpers each
/// take the next item from one shared queue until it is empty. A panic
/// in `f` resumes unwinding on the caller, with its own payload, once
/// every thread has stopped.
pub fn map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let helpers = items.len().min(cores()).saturating_sub(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("`f` never runs under the queue lock")
                .next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        // A panic here unwinds out of the scope after it joins the helpers.
        let mut done = work();
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(more) => done.extend(more),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_item_order() {
        assert_eq!(map(Vec::<u32>::new(), |x| x * 2), Vec::<u32>::new());
        assert_eq!(map(vec![7u32], |x| x * 2), vec![14]);
        let items: Vec<u64> = (0..1000).collect();
        let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(map(items, |x| x * x), squares);
    }

    #[test]
    fn a_panicking_item_resumes_unwinding_with_its_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map((0..4).collect(), |item: usize| {
                if item == 2 {
                    panic::panic_any("item 2 failed");
                }
                item
            })
        }))
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"item 2 failed"));
    }
}
