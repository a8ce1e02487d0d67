//! The chaos sweeps' unscripted-panic check.
//!
//! The scheduler's guard turns any engine panic into a `Panic`-class fault
//! and replays the residents, and a replayed resident completes
//! token-identical — so an engine assertion that fired (a seat into an
//! occupied slot, a pool identity, a write into a shared page, a double
//! free) would leave every stream correct and pass unseen. [`watch`]
//! installs a panic hook that records every panic a fault plan did not
//! script; a sweep that ends with any recorded fails.

use std::panic::PanicHookInfo;
use std::sync::{Mutex, Once, PoisonError};

/// How a scripted panic's message starts: an engine-fault plan's `Panic`
/// (`dsi_core::FaultyEngine`) and a member-fault plan's
/// (`dsi_model::team`).
const SCRIPTED: [&str; 2] = ["injected engine panic", "injected fault: member"];

static UNSCRIPTED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// The panics recorded since [`watch`] first ran in this process.
pub struct PanicWatch;

impl PanicWatch {
    /// Fail, listing each with its site, if any panic no fault plan
    /// scripted was recorded.
    pub fn assert_none(&self) {
        let unscripted = UNSCRIPTED.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert!(unscripted.is_empty(), "panics no fault plan scripted: {unscripted:#?}");
    }
}

/// Install the recording hook, once per process. It chains to the hook
/// it replaces, so every panic still prints.
pub fn watch() -> PanicWatch {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            let p = info.payload();
            let msg = p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str));
            let msg = msg.unwrap_or("");
            if !SCRIPTED.iter().any(|s| msg.starts_with(s)) {
                let at = info.location().map(|l| format!(" at {l}")).unwrap_or_default();
                UNSCRIPTED.lock().unwrap_or_else(PoisonError::into_inner).push(format!("{msg}{at}"));
            }
            prev(info);
        }));
    });
    PanicWatch
}
