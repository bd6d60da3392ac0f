//! Shim thread API: virtual threads inside a model, `std::thread` outside.

use std::sync::{Arc, Mutex as StdMutex};

use crate::engine::{current, Engine, Tid};

/// Handle returned by [`spawn`]; [`JoinHandle::join`] waits for the thread
/// and returns its result.
pub struct JoinHandle<T>(Inner<T>);

enum Inner<T> {
    /// A virtual thread owned by the model-checking engine.
    Model {
        engine: Arc<Engine>,
        tid: Tid,
        /// Where the body parks its return value.
        slot: Arc<StdMutex<Option<T>>>,
    },
    /// A real OS thread (shim used outside any model).
    Os(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result. Inside a model
    /// this is a blocking schedule point that also establishes the child's
    /// happens-before edge into the caller. A child panic never surfaces
    /// here: the engine records it as a model failure and aborts the
    /// execution.
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Inner::Model { engine, tid, slot } => {
                let me = current()
                    .expect("joining a model thread from outside the model")
                    .1;
                engine.join_thread(me, tid);
                let value = slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .expect("virtual thread finished without storing a result");
                Ok(value)
            }
            Inner::Os(h) => h.join(),
        }
    }
}

/// Spawns a thread: a virtual thread when called from a model body, a real
/// `std::thread` otherwise.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        Some((engine, me)) => {
            let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let slot2 = Arc::clone(&slot);
            let tid = engine.spawn(
                me,
                Box::new(move || {
                    // User panics unwind out of this closure and are recorded
                    // by the engine's wrapper; only a normal return stores.
                    let value = f();
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
                }),
            );
            JoinHandle(Inner::Model { engine, tid, slot })
        }
        None => JoinHandle(Inner::Os(std::thread::spawn(f))),
    }
}

/// Yield point: inside a model, a schedule point at which some *other*
/// runnable thread runs next, if there is one (so spin-waits terminate under
/// every explored schedule); `std::thread::yield_now` outside.
pub fn yield_now() {
    if let Some((engine, me)) = current() {
        engine.yield_point(me);
    } else {
        std::thread::yield_now();
    }
}
