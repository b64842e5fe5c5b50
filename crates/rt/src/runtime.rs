//! The hand-rolled executor: per-worker run queues, a shared injector,
//! work stealing, and a condvar park loop.
//!
//! No `unsafe`, no dependencies: tasks are `Arc`-shared state machines
//! whose wakers come from [`std::task::Wake`], and workers are plain
//! [`std::thread`]s. The design is the classic small work-stealing
//! executor:
//!
//! - every task has a **home queue** (round-robin at spawn), so steady
//!   load spreads without coordination;
//! - a worker pops its own queue first (FIFO), then the shared
//!   **injector** (tasks woken from outside the pool land there), then
//!   **steals** from the back of sibling queues;
//! - an idle worker parks on a condvar tied to the injector lock; every
//!   push notifies under that lock, so wakeups cannot be lost.
//!
//! Scheduling state per task is one atomic (`Idle / Queued / Running /
//! Notified / Done`): a wake during a poll moves `Running → Notified`,
//! and the polling worker re-queues the task instead of dropping the
//! wake — the standard protocol for never losing a wakeup without
//! holding a lock across `poll`.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Task scheduling states (the one-atomic wake protocol).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// One spawned future plus its scheduling state. `Arc<Task>` doubles as
/// the waker (via [`Wake`]).
struct Task {
    /// The future; taken while a worker polls it, restored on `Pending`.
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    /// Preferred worker queue (round-robin at spawn).
    home: usize,
    shared: Arc<Shared>,
}

impl Task {
    /// Polls the task once. Called by a worker that dequeued it.
    fn run(self: &Arc<Self>) {
        if self
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Completed (or never queued) — a stale queue entry.
            return;
        }
        let Some(mut future) = self.future.lock().expect("task future poisoned").take() else {
            self.state.store(DONE, Ordering::Release);
            return;
        };
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.state.store(DONE, Ordering::Release);
            }
            Poll::Pending => {
                // Restore the future *before* leaving `Running`, so a
                // re-queued task always finds it.
                *self.future.lock().expect("task future poisoned") = Some(future);
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A wake arrived mid-poll (`Running → Notified`):
                    // honour it by re-queueing ourselves.
                    self.state.store(QUEUED, Ordering::Release);
                    self.shared.push(Arc::clone(self));
                }
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let shared = Arc::clone(&self.shared);
                        shared.push(self);
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / notified / done: the wake coalesces.
                _ => return,
            }
        }
    }
}

/// State shared between the [`Runtime`] handle and its workers.
struct Shared {
    /// Per-worker run queues. Owner pops the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Arc<Task>>>>,
    /// Overflow / external-wake queue, also the sleep lock: idle workers
    /// park on [`Shared::idle`] holding this mutex, and every push
    /// notifies under it, which is what makes lost wakeups impossible.
    injector: Mutex<VecDeque<Arc<Task>>>,
    idle: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Queues a task on its home queue and wakes one sleeper.
    fn push(&self, task: Arc<Task>) {
        let home = task.home % self.queues.len();
        self.queues[home]
            .lock()
            .expect("run queue poisoned")
            .push_back(task);
        // Touch the injector lock so the notify synchronizes with any
        // worker deciding to sleep (see `worker_loop`).
        let _guard = self.injector.lock().expect("injector poisoned");
        self.idle.notify_one();
    }

    /// Pop order: own queue front, injector front, then steal one task
    /// from the back of each sibling queue.
    fn find_work(&self, index: usize) -> Option<Arc<Task>> {
        if let Some(task) = self.queues[index]
            .lock()
            .expect("run queue poisoned")
            .pop_front()
        {
            return Some(task);
        }
        if let Some(task) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(task);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (index + off) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .expect("run queue poisoned")
                .pop_back()
            {
                return Some(task);
            }
        }
        None
    }

    /// Any task anywhere? Called under the injector lock before parking.
    fn any_queued(&self, guard: &VecDeque<Arc<Task>>) -> bool {
        !guard.is_empty()
            || self
                .queues
                .iter()
                .any(|q| !q.lock().expect("run queue poisoned").is_empty())
    }
}

/// A worker's main loop: run until shutdown, parking when idle.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    loop {
        if let Some(task) = shared.find_work(index) {
            task.run();
            continue;
        }
        let guard = shared.injector.lock().expect("injector poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Re-check under the lock: a producer that pushed after our
        // `find_work` miss is either visible now, or is blocked on this
        // lock and will notify once we wait.
        if shared.any_queued(&guard) {
            continue;
        }
        let _unused = shared.idle.wait(guard).expect("injector poisoned");
    }
}

/// A handle whose task completed (or will): await it inside another task,
/// or [`join`](JoinHandle::join) it from a plain thread.
///
/// Dropping the handle detaches the task (it keeps running).
#[derive(Debug)]
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

struct JoinState<T> {
    slot: Mutex<JoinSlot<T>>,
    done: Condvar,
}

impl<T> std::fmt::Debug for JoinState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinState { .. }")
    }
}

enum JoinSlot<T> {
    /// Not finished; holds the waker of an awaiting task, if any.
    Pending(Option<Waker>),
    /// Finished; the output waits to be taken.
    Ready(Option<T>),
}

impl<T> JoinState<T> {
    fn complete(&self, value: T) {
        let mut slot = self.slot.lock().expect("join slot poisoned");
        let waker = match std::mem::replace(&mut *slot, JoinSlot::Ready(Some(value))) {
            JoinSlot::Pending(waker) => waker,
            JoinSlot::Ready(_) => unreachable!("task completed twice"),
        };
        drop(slot);
        self.done.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> JoinHandle<T> {
    /// Blocks the calling thread until the task finishes, returning its
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the output was already taken (the handle was polled to
    /// completion and then joined).
    pub fn join(self) -> T {
        let mut slot = self.state.slot.lock().expect("join slot poisoned");
        loop {
            match &mut *slot {
                JoinSlot::Ready(value) => {
                    return value.take().expect("join handle output already taken")
                }
                JoinSlot::Pending(_) => {
                    slot = self.state.done.wait(slot).expect("join slot poisoned");
                }
            }
        }
    }

    /// Whether the task has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        matches!(
            &*self.state.slot.lock().expect("join slot poisoned"),
            JoinSlot::Ready(_)
        )
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.state.slot.lock().expect("join slot poisoned");
        match &mut *slot {
            JoinSlot::Ready(value) => {
                Poll::Ready(value.take().expect("join handle output already taken"))
            }
            JoinSlot::Pending(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// The work-stealing runtime: `N` worker threads serving spawned tasks
/// from per-worker queues with stealing.
///
/// Dropping the runtime sets the shutdown flag and joins the workers. A
/// worker reads that flag only once it finds no queued task anywhere, so
/// the drop first drains every queue: each task queued before or during
/// the drop is polled until it completes or returns `Pending`. What can
/// be lost is a task parked `Pending` whose wake arrives after the last
/// worker has exited; it is queued but never polled again, and a
/// [`JoinHandle`] for it never resolves. Join what you need before
/// dropping.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Round-robin home-queue cursor for spawns.
    next_home: AtomicUsize,
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
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sampcert-rt-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            workers: threads,
            next_home: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the runtime, returning a handle to its
    /// output. The task starts on a round-robin home queue and may be
    /// stolen by any worker.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = Arc::new(JoinState {
            slot: Mutex::new(JoinSlot::Pending(None)),
            done: Condvar::new(),
        });
        let completion = Arc::clone(&state);
        let wrapped = async move {
            let value = future.await;
            completion.complete(value);
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            state: AtomicU8::new(QUEUED),
            home: self.next_home.fetch_add(1, Ordering::Relaxed),
            shared: Arc::clone(&self.shared),
        });
        self.shared.push(task);
        JoinHandle { state }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.injector.lock().expect("injector poisoned");
            self.idle_notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Runtime {
    fn idle_notify_all(&self) {
        self.shared.idle.notify_all();
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
    fn tasks_migrate_across_workers() {
        // All tasks get home queue 0 via a single spawner, but a blocked
        // worker cannot serve them all: completing every task within the
        // timeout requires stealing.
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
            while !shared.shutdown.load(Ordering::Acquire) {
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
}
