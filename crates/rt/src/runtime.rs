//! The hand-rolled executor: one shared run queue served by a fixed set
//! of worker threads.
//!
//! No `unsafe`, no dependencies: tasks are `Arc`-shared futures whose
//! wakers come from [`std::task::Wake`], and workers are plain
//! [`std::thread`]s.
//!
//! - Spawned and woken tasks join the back of one FIFO queue, and any
//!   idle worker pops the front. The queue and the shutdown flag sit
//!   behind one mutex, and idle workers park on its condvar.
//! - A task's only scheduling state is its `queued` flag. A wake queues
//!   the task only if the flag was clear, and the worker clears it
//!   *before* it polls, so a wake that arrives during a poll queues the
//!   task again and is not lost. The future's mutex is held across the
//!   poll, so such a task waits for the poll in flight to end.
//! - A panic in a poll is caught: the future is dropped, the worker goes
//!   on, and the task's [`JoinHandle`] re-raises the panic.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned future plus its `queued` flag. `Arc<Task>` doubles as the
/// waker (via [`Wake`]).
struct Task {
    /// The future; `None` once it has completed or panicked.
    future: Mutex<Option<BoxFuture>>,
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Task {
    /// Polls the task once. Called by a worker that dequeued it.
    fn run(self: &Arc<Self>) {
        let mut slot = self.future.lock().expect("task future poisoned");
        // A wake from here on queues the task again. The swap acquires
        // what the waker wrote before it set the flag.
        self.queued.swap(false, Ordering::AcqRel);
        // `None` is a stale queue entry of a completed task.
        if let Some(future) = slot.as_mut() {
            let waker = Waker::from(Arc::clone(self));
            if future
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_ready()
            {
                *slot = None;
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        // Releases what the waker wrote to the worker's swap in `run`.
        if !self.queued.swap(true, Ordering::AcqRel) {
            let shared = Arc::clone(&self.shared);
            shared.push(self);
        }
    }
}

/// State shared between the [`Runtime`] handle and its workers.
struct Shared {
    queue: Mutex<RunQueue>,
    /// Idle workers park here, on `queue`'s lock.
    ready: Condvar,
}

struct RunQueue {
    tasks: VecDeque<Arc<Task>>,
    /// Set by the runtime's drop; read only once `tasks` is empty.
    shutdown: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.queue.lock().expect("run queue poisoned")
    }

    /// Queues a task at the back and wakes one idle worker.
    fn push(&self, task: Arc<Task>) {
        self.lock().tasks.push_back(task);
        self.ready.notify_one();
    }
}

/// A worker's main loop: run queued tasks, park when there are none, and
/// exit once the queue is empty and shutdown is set.
fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            task.run();
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.ready.wait(queue).expect("run queue poisoned");
        }
    }
}

/// A handle whose task completed (or will): await it inside another task,
/// or [`join`](JoinHandle::join) it from a plain thread.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    slot: Arc<Mutex<JoinSlot<T>>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

enum JoinSlot<T> {
    /// Not finished; holds the waker of an awaiting task, if any.
    Pending(Option<Waker>),
    /// Finished; the output (or the task's panic) waits to be taken.
    Ready(Option<std::thread::Result<T>>),
}

/// Stores a finished task's output and wakes whoever awaits it.
fn complete<T>(slot: &Mutex<JoinSlot<T>>, output: std::thread::Result<T>) {
    let mut slot = slot.lock().expect("join slot poisoned");
    if let JoinSlot::Pending(Some(waker)) =
        std::mem::replace(&mut *slot, JoinSlot::Ready(Some(output)))
    {
        drop(slot);
        waker.wake();
    }
}

impl<T> JoinHandle<T> {
    /// Blocks the calling thread until the task finishes, returning its
    /// output.
    ///
    /// # Panics
    ///
    /// Re-raises the task's panic if it panicked. Panics if the output
    /// was already taken (the handle was polled to completion and then
    /// joined).
    pub fn join(self) -> T {
        block_on(self)
    }

    /// Whether the task has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        matches!(
            &*self.slot.lock().expect("join slot poisoned"),
            JoinSlot::Ready(_)
        )
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    /// Resolves to the task's output, or re-raises the task's panic.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.lock().expect("join slot poisoned");
        let output = match &mut *slot {
            JoinSlot::Ready(output) => output.take().expect("join handle output already taken"),
            JoinSlot::Pending(waker) => {
                *waker = Some(cx.waker().clone());
                return Poll::Pending;
            }
        };
        // Unwind with the lock released, so the slot is not poisoned.
        drop(slot);
        Poll::Ready(output.unwrap_or_else(|panic| resume_unwind(panic)))
    }
}

/// The runtime: `N` worker threads serving spawned tasks from one shared
/// run queue.
///
/// Dropping the runtime sets the shutdown flag and joins the workers. A
/// worker reads that flag only once it finds the queue empty, so the
/// drop first drains it: each task queued before or during the drop is
/// polled until it completes or returns `Pending`. What can be lost is a
/// task parked `Pending` whose wake arrives after the last worker has
/// exited; it is queued but never polled again, and a [`JoinHandle`]
/// for it never resolves. Join what you need before dropping.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Runtime {
    /// Starts `workers` worker threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(RunQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sampcert-rt-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the runtime, returning a handle to its
    /// output. The task joins the back of the run queue, and whichever
    /// worker is free polls it.
    ///
    /// A panic in the future is caught: the future is dropped, the
    /// worker goes on, and the handle re-raises the panic.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let slot = Arc::new(Mutex::new(JoinSlot::Pending(None)));
        let completion = Arc::clone(&slot);
        let wrapped = async move {
            let output = {
                let mut future = std::pin::pin!(future);
                std::future::poll_fn(|cx| {
                    match catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(cx))) {
                        Ok(Poll::Pending) => Poll::Pending,
                        Ok(Poll::Ready(value)) => Poll::Ready(Ok(value)),
                        Err(panic) => Poll::Ready(Err(panic)),
                    }
                })
                .await
            };
            complete(&completion, output);
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(true),
            shared: Arc::clone(&self.shared),
        });
        self.shared.push(task);
        JoinHandle { slot }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A [`Wake`] that unparks a parked thread — the waker behind
/// [`block_on`].
struct Unparker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drives a future to completion on the calling thread, parking between
/// polls. This is how synchronous code consumes `answer_async` futures
/// and [`JoinHandle`]s without a second runtime.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                while !unparker.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn spawn_and_join_many() {
        let rt = Runtime::new(4);
        let handles: Vec<_> = (0..64u64).map(|i| rt.spawn(async move { i * i })).collect();
        let total: u64 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(total, (0..64u64).map(|i| i * i).sum());
    }

    #[test]
    fn block_on_drives_pending_futures() {
        // A future that goes Pending once and is woken from another
        // thread — exercises the park/unpark loop.
        struct YieldOnce {
            woken: bool,
        }
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.woken {
                    Poll::Ready(7)
                } else {
                    self.woken = true;
                    let waker = cx.waker().clone();
                    std::thread::spawn(move || waker.wake());
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce { woken: false }), 7);
    }

    #[test]
    fn blocked_worker_does_not_hold_back_queued_tasks() {
        // One task blocks its worker inside a poll until every later task
        // has finished: the other workers must serve the whole queue.
        let rt = Runtime::new(4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = {
            let gate = Arc::clone(&gate);
            rt.spawn(async move {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        };
        let handles: Vec<_> = (0..32u32).map(|i| rt.spawn(async move { i + 1 })).collect();
        let sum: u32 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(sum, (1..=32).sum());
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.join();
    }

    #[test]
    fn drop_drains_queued_tasks() {
        // One worker, held by a blocking task until the drop has set the
        // shutdown flag, so three more tasks are still queued behind it
        // when the runtime shuts down: the drop runs all of them.
        let rt = Runtime::new(1);
        let shared = Arc::clone(&rt.shared);
        let mut handles = vec![rt.spawn(async move {
            while !shared.lock().shutdown {
                std::thread::yield_now();
            }
            0u32
        })];
        handles.extend((1..=3u32).map(|i| rt.spawn(async move { i })));
        drop(rt);
        assert!(handles.iter().all(JoinHandle::is_finished));
        let joined: Vec<u32> = handles.into_iter().map(JoinHandle::join).collect();
        assert_eq!(joined, vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_handle_awaits_inside_a_task() {
        let rt = Runtime::new(2);
        let inner = rt.spawn(async { 21u64 });
        let outer = rt.spawn(async move { inner.await * 2 });
        assert_eq!(outer.join(), 42);
    }

    /// Waits up to five seconds for `handle` to finish, so a lost task
    /// fails the test instead of hanging it.
    fn finishes_in_time<T>(handle: &JoinHandle<T>) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.is_finished() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn a_panicking_task_leaves_its_worker_running() {
        let rt = Runtime::new(1);
        let panicked = rt.spawn(async { panic!("task blew up") });
        let next = rt.spawn(async { 1u32 });
        assert!(
            finishes_in_time(&next),
            "the only worker died with the panic"
        );
        assert_eq!(next.join(), 1);
        let payload = catch_unwind(AssertUnwindSafe(|| panicked.join())).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task blew up"));
        // Awaiting a panicked task's handle re-raises the panic too, and
        // the task that awaited it is caught in turn.
        let inner = rt.spawn(async { panic!("inner") });
        let outer = rt.spawn(async move {
            inner.await;
            1u32
        });
        let payload = catch_unwind(AssertUnwindSafe(|| outer.join())).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inner"));
        assert_eq!(rt.spawn(async { 2u32 }).join(), 2);
    }

    #[test]
    fn no_wakeup_is_lost_when_woken_mid_poll() {
        /// Returns `Pending` `left` times, each time handing its waker to
        /// a new thread that wakes it at once, so the wake races the
        /// rest of the poll.
        struct WokenFromThread {
            left: u32,
            id: u64,
        }
        impl Future for WokenFromThread {
            type Output = u64;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                if self.left == 0 {
                    return Poll::Ready(self.id);
                }
                self.left -= 1;
                let waker = cx.waker().clone();
                std::thread::spawn(move || waker.wake());
                Poll::Pending
            }
        }
        /// Wakes itself twice inside each poll, then returns `Pending`,
        /// `left` times.
        struct WakesItself {
            left: u32,
            id: u64,
        }
        impl Future for WakesItself {
            type Output = u64;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                if self.left == 0 {
                    return Poll::Ready(self.id);
                }
                self.left -= 1;
                cx.waker().wake_by_ref();
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let handles: Vec<_> = (0..8u64)
                .flat_map(|id| {
                    [
                        rt.spawn(WokenFromThread { left: 20, id }),
                        rt.spawn(WakesItself {
                            left: 20,
                            id: 100 + id,
                        }),
                    ]
                })
                .collect();
            for handle in &handles {
                assert!(
                    finishes_in_time(handle),
                    "a wakeup was lost on {workers} workers"
                );
            }
            let sum: u64 = handles.into_iter().map(JoinHandle::join).sum();
            assert_eq!(sum, (0..8).map(|id| 100 + 2 * id).sum::<u64>());
        }
    }
}
