//! Regression coverage for the lock-order deadlock detector.
//!
//! The detector lives in vendored `parking_lot` (every lock in this
//! workspace goes through it — `clippy.toml` disallows the `std::sync`
//! locks). These tests live in their own integration binary
//! because enabling detection is process-global.

#![allow(
    clippy::disallowed_methods,
    reason = "the test provokes lock orders from threads of its own"
)]

#[cfg(debug_assertions)]
mod debug_build {
    use parking_lot::{lock_order_enabled, set_lock_order_enabled, Mutex};
    use std::sync::Arc;
    use std::thread;

    /// The seeded inversion: thread 1 takes A then B (recording the
    /// edge A→B), thread 2 takes B then A — a genuine cycle that would
    /// deadlock under unlucky scheduling. The detector must report it
    /// *before* blocking, with both acquisition orders in the message.
    #[test]
    fn seeded_ab_ba_inversion_is_reported_with_the_cycle() {
        // Default state first, while nothing has forced it: off unless
        // the environment opted in (CI runs both ways).
        let env_on = std::env::var("NMCS_LOCK_ORDER")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        assert_eq!(
            lock_order_enabled(),
            env_on,
            "detector must be off by default and on only via NMCS_LOCK_ORDER"
        );

        set_lock_order_enabled(true);
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));

        // Thread 1: consistent A → B order. Legal; records the edge.
        {
            let (a, b) = (a.clone(), b.clone());
            thread::spawn(move || {
                let ga = a.lock();
                let gb = b.lock();
                drop(gb);
                drop(ga);
            })
            .join()
            .expect("consistent order must not trip the detector");
        }

        // Thread 2: B → A. The detector panics in the acquiring thread;
        // silence the default hook around the expected panic so the test
        // log stays clean.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = {
            thread::spawn(move || {
                let gb = b.lock();
                let ga = a.lock();
                drop(ga);
                drop(gb);
            })
            .join()
            .expect_err("B → A after A → B must be reported")
        };
        std::panic::set_hook(prev_hook);

        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("detector panics with a String report");
        assert!(
            msg.contains("lock-order inversion"),
            "report must name the inversion: {msg}"
        );
        assert!(
            msg.contains("first acquired in this order"),
            "report must carry the original acquisition order: {msg}"
        );
        assert!(
            msg.contains("acquisition backtrace"),
            "report must carry the current acquisition stack: {msg}"
        );

        // Restore the pre-test state for any later process reuse.
        set_lock_order_enabled(env_on);
    }
}

#[cfg(not(debug_assertions))]
mod release_build {
    use parking_lot::{lock_order_enabled, Mutex};
    use std::sync::Arc;
    use std::thread;

    /// Release builds compile the detector out entirely: the enabled
    /// probe is a const `false` and a seeded inversion acquires cleanly
    /// (taken in a non-deadlocking sequence here, of course).
    #[test]
    fn detector_is_compiled_out_in_release() {
        assert!(!lock_order_enabled());
        std::env::set_var("NMCS_LOCK_ORDER", "1");
        assert!(
            !lock_order_enabled(),
            "the release stub must ignore NMCS_LOCK_ORDER"
        );

        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        {
            let (a, b) = (a.clone(), b.clone());
            thread::spawn(move || {
                let ga = a.lock();
                let gb = b.lock();
                drop(gb);
                drop(ga);
            })
            .join()
            .unwrap();
        }
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
    }
}
