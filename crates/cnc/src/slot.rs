//! The item slot and its wait list. The state machine, who may make
//! each transition and the memory-ordering argument are stated once, at
//! the top of [`crate::hot`].

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::hot::{Header, InstanceRef};

// The state word is a `*mut Header`: null (empty), the newest parked
// instance, or one of three addresses no `Header` (8-aligned) can have.
const EMPTY: usize = 0;
const READY: usize = 1;
const WRITING: usize = 2;
const SCANNING: usize = 3;

fn mark(state: usize) -> *mut Header {
    ptr::without_provenance_mut(state)
}

/// Waits out a WRITING/SCANNING window (a few instructions, unless its
/// holder lost the processor).
fn spin(rounds: &mut u32) {
    if *rounds < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *rounds += 1;
}

/// The state word of a [`Slot`]: all of it that waiting needs, whatever
/// the payload type — what a declared dependency points at.
pub(crate) struct SlotState(AtomicPtr<Header>);

/// One single-assignment item; see [`crate::hot`] for the protocol.
pub(crate) struct Slot<V> {
    state: SlotState,
    value: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: `value` is written once, by the thread that moved `state` to
// WRITING, and read only after an acquire load of READY; the wait list
// holds `InstanceRef`s, which are `Send`.
unsafe impl<V: Send + Sync> Sync for Slot<V> {}
unsafe impl<V: Send> Send for Slot<V> {}

impl<V> std::ops::Deref for Slot<V> {
    type Target = SlotState;

    fn deref(&self) -> &SlotState {
        &self.state
    }
}

impl SlotState {
    pub(crate) fn is_ready(&self) -> bool {
        self.0.load(Ordering::Acquire).addr() == READY
    }

    /// Moves the word from "no item yet" (empty or a wait list) to
    /// `to`, waiting out SCANNING, and returns the wait list it
    /// replaced. `None`: the item is being or has been put.
    fn claim(&self, to: usize) -> Option<*mut Header> {
        let (mut seen, mut rounds) = (self.0.load(Ordering::Acquire), 0);
        loop {
            match seen.addr() {
                READY | WRITING => return None,
                SCANNING => {
                    spin(&mut rounds);
                    seen = self.0.load(Ordering::Acquire);
                }
                _ => match self.0.compare_exchange_weak(
                    seen,
                    mark(to),
                    Ordering::Acquire,
                    Ordering::Acquire,
                ) {
                    Ok(list) => return Some(list),
                    Err(now) => seen = now,
                },
            }
        }
    }

    /// Parks `inst` until the item is put. `Err` hands it back: the item
    /// is there.
    pub(crate) fn park(&self, inst: InstanceRef) -> Result<(), InstanceRef> {
        let (mut seen, mut rounds) = (self.0.load(Ordering::Acquire), 0);
        loop {
            match seen.addr() {
                READY => return Err(inst),
                WRITING | SCANNING => {
                    spin(&mut rounds);
                    seen = self.0.load(Ordering::Acquire);
                }
                _ => {
                    inst.next.store(seen, Ordering::Relaxed);
                    match self.0.compare_exchange_weak(
                        seen,
                        inst.as_ptr(),
                        Ordering::Release,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            std::mem::forget(inst); // the list owns it now
                            return Ok(());
                        }
                        Err(now) => seen = now,
                    }
                }
            }
        }
    }

    /// Shows every instance parked here to `visit` (diagnostics).
    pub(crate) fn for_each_parked(&self, mut visit: impl FnMut(&Header)) {
        // A slot being put or already put has nobody parked.
        let Some(head) = self.claim(SCANNING) else {
            return;
        };
        let mut node = head;
        // SAFETY: SCANNING keeps parkers and putters off the word, so
        // the list (which owns a reference on each node) is ours until
        // the store below.
        while let Some(header) = unsafe { node.as_ref() } {
            visit(header);
            node = header.next.load(Ordering::Relaxed);
        }
        self.0.store(head, Ordering::Release);
    }

    /// Forgets the parked instances (teardown); the caller drops them.
    pub(crate) fn take_parked(&self) -> Option<Waiters> {
        let list = self.claim(EMPTY)?;
        (!list.is_null()).then_some(Waiters(list))
    }
}

impl<V> Slot<V> {
    pub(crate) fn empty() -> Self {
        Slot {
            state: SlotState(AtomicPtr::new(mark(EMPTY))),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// The item, if it has been put.
    pub(crate) fn get(&self) -> Option<&V> {
        // SAFETY: READY is stored after the payload write (release /
        // acquire) and the payload is never written again.
        self.is_ready()
            .then(|| unsafe { (*self.value.get()).assume_init_ref() })
    }

    /// Publishes the item and hands back the instances parked on it,
    /// oldest first. `Err` returns the value: the slot was already put.
    pub(crate) fn put(&self, value: V) -> Result<Waiters, V> {
        let Some(list) = self.claim(WRITING) else {
            return Err(value);
        };
        // SAFETY: winning the CAS to WRITING makes this thread the only
        // writer the cell will ever have; no reader looks before READY.
        unsafe { (*self.value.get()).write(value) };
        self.state.0.store(mark(READY), Ordering::Release);
        Ok(Waiters::oldest_first(list))
    }
}

impl<V> Drop for Slot<V> {
    fn drop(&mut self) {
        let state = *self.state.0.get_mut();
        match state.addr() {
            // SAFETY: READY means the payload was written.
            READY => unsafe { self.value.get_mut().assume_init_drop() },
            WRITING | SCANNING => {}
            _ => drop(Waiters(state)),
        }
    }
}

/// A wait list taken out of its slot: owns one reference per instance.
pub(crate) struct Waiters(*mut Header);

impl Waiters {
    /// Reverses the newest-first list so instances resume in the order
    /// they parked (what a managed schedule and a one-worker run see).
    fn oldest_first(mut newest: *mut Header) -> Self {
        let mut reversed: *mut Header = ptr::null_mut();
        // SAFETY: the caller took the list out of its slot, so every
        // node is a live instance nobody else links or unlinks.
        while let Some(header) = unsafe { newest.as_ref() } {
            let older = header.next.swap(reversed, Ordering::Relaxed);
            reversed = newest;
            newest = older;
        }
        Waiters(reversed)
    }
}

impl Iterator for Waiters {
    type Item = InstanceRef;

    fn next(&mut self) -> Option<InstanceRef> {
        let node = NonNull::new(self.0)?;
        // SAFETY: as in `oldest_first`; the list's reference on the node
        // becomes the returned handle's.
        self.0 = unsafe { node.as_ref() }.next.load(Ordering::Relaxed);
        Some(unsafe { InstanceRef::from_raw(node) })
    }
}

impl Drop for Waiters {
    fn drop(&mut self) {
        self.for_each(drop);
    }
}
