//! Offline stand-in for the part of `crossbeam-deque` the fork-join
//! pool uses: a LIFO `Worker` with `Stealer`s taking from the other
//! end, and a FIFO `Injector`. Each queue is a `Mutex<VecDeque>`, not a
//! lock-free Chase-Lev deque, so a push or pop costs one uncontended
//! lock more than the published crate's. The benchmark patches it in
//! because the sandbox has no crate registry; see `perf/README.md`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most tasks `steal_batch_and_pop` moves besides the one it returns
/// (the published crate's batch limit).
const MAX_BATCH: usize = 32;

/// Outcome of a steal attempt. This stand-in never reports `Retry`.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    Empty,
    Success(T),
    Retry,
}

fn locked<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The owner's end of a work-stealing deque.
pub struct Worker<T> {
    queue: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Worker<T> {
    /// A deque whose owner pops the task it pushed last.
    pub fn new_lifo() -> Self {
        Worker {
            queue: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    pub fn push(&self, task: T) {
        locked(&self.queue).push_back(task);
    }

    pub fn pop(&self) -> Option<T> {
        locked(&self.queue).pop_back()
    }

    pub fn is_empty(&self) -> bool {
        locked(&self.queue).is_empty()
    }

    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            queue: Arc::clone(&self.queue),
        }
    }
}

/// A thief's handle: takes the oldest task.
pub struct Stealer<T> {
    queue: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Stealer<T> {
    pub fn steal(&self) -> Steal<T> {
        match locked(&self.queue).pop_front() {
            Some(task) => Steal::Success(task),
            None => Steal::Empty,
        }
    }

    pub fn is_empty(&self) -> bool {
        locked(&self.queue).is_empty()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            queue: Arc::clone(&self.queue),
        }
    }
}

/// The shared FIFO queue that threads outside the pool push into.
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, task: T) {
        locked(&self.queue).push_back(task);
    }

    pub fn is_empty(&self) -> bool {
        locked(&self.queue).is_empty()
    }

    /// Returns the oldest task and moves up to half of the rest (at
    /// most [`MAX_BATCH`]) into `dest`, oldest on top.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let mut src = locked(&self.queue);
        let Some(first) = src.pop_front() else {
            return Steal::Empty;
        };
        let batch = (src.len() / 2).min(MAX_BATCH);
        if batch > 0 {
            let mut dst = locked(&dest.queue);
            let at = dst.len();
            // The owner pops from the back, so the oldest goes last.
            for task in src.drain(..batch) {
                dst.insert(at, task);
            }
        }
        Steal::Success(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_and_thief_is_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..4 {
            w.push(i);
        }
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.clone().steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn injector_batches_in_fifo_order() {
        let inj = Injector::new();
        for i in 0..9 {
            inj.push(i);
        }
        let w = Worker::new_lifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
        // Half of the remaining eight moved, oldest popped first.
        assert_eq!(
            std::iter::from_fn(|| w.pop()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(5));
        assert_eq!(std::iter::from_fn(|| w.pop()).collect::<Vec<_>>(), vec![6]);
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(7));
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(8));
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::<i32>::Empty);
        assert!(inj.is_empty() && w.is_empty());
    }
}
