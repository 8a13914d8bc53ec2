//! The serving stack and its observer share one debug-build lock witness
//! (`cardest_obs::one_lock`): every tracked acquisition in `cardest-serve`
//! and every `Observer` trace-ring / slow-log acquisition sets the same
//! thread-local flag, so a thread that holds a serve lock and then reaches
//! into the observer panics in debug builds instead of nesting the locks.

use cardest_obs::{ObsConfig, Observer};

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "lock nesting"))]
fn observer_lock_under_a_held_serve_lock_panics_in_debug() {
    let obs = Observer::new(ObsConfig::default());
    // The witness every serve lock site declares before its `.lock()`:
    // this thread now counts as holding a serve-tracked lock. Release
    // builds compile the witness to nothing, so passing without a panic is
    // exactly the claim being verified there.
    let _serve_lock = cardest_obs::one_lock();
    let _ = obs.recent_traces(4);
}
