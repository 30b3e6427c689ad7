//! A hard timeout for integration tests, so a deadlock or a stalled
//! worker fails the test instead of hanging the run.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Run `scenario` on a helper thread; panic with `message` if it has not
/// finished within `timeout`.
pub fn with_timeout(timeout: Duration, message: &str, scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(timeout) {
        // Completed, or panicked (dropping its sender): join either way
        // and re-raise the real assertion failure with its own message.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("{message} (timeout {timeout:?})"),
    }
}
