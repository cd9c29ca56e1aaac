//! Offline stand-in for `crossbeam-utils`. The repo's runtimes list the
//! crate as a dependency but use no item from it, so this is empty.
