//! Deterministic parallel scheduler for the benchmark grid.
//!
//! The grid of measurement cells — (experiment × backend × sweep point)
//! over the deterministic simulated clock — is embarrassingly parallel
//! *except* for one kind of state: a backend's device accumulates JIT
//! program caches and memory-pool free lists as the serial sweep
//! progresses, and the `cold_nanos` column of every sample reads that
//! accumulated state. Devices are per-backend, so the true dependency
//! structure of the whole grid is **one serial chain per backend** (plus
//! a set of fully independent cells that build fresh devices anyway:
//! the fault-injection sweep E17, the fusion ablation A2, the JIT-cache
//! ablation A3).
//!
//! The scheduler models exactly that: a [`Plan`] is a set of tasks with
//! optional chain predecessors, executed by a fixed pool of `--jobs`
//! workers. Tasks on the same chain never run concurrently and always run
//! in chain order, so every device observes the byte-identical operation
//! sequence of the serial run; tasks on different chains interleave
//! freely, which never matters because they touch disjoint devices.
//! Results are keyed by task, and the grid emits them in canonical serial
//! order — output is therefore bit-identical at any worker count.

use proto_core::runner::Sample;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One backend's contribution to an experiment: the samples it produces
/// at each sweep step, in per-device execution order.
pub type Part = Vec<Vec<Sample>>;

/// Interleave per-backend parts in the serial sweep's emission order:
/// sweep step outermost, backends (part order) within a step. Parts may
/// have fewer steps than the widest part (a backend that skips an
/// experiment contributes an empty part).
pub(crate) fn merge_x_major(parts: Vec<Part>) -> Vec<Sample> {
    let steps = parts.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for step in 0..steps {
        for part in &parts {
            if let Some(row) = part.get(step) {
                out.extend(row.iter().cloned());
            }
        }
    }
    out
}

/// Concatenate per-backend sample lists in backend order (experiments
/// whose serial loop is backend-outermost: E13, E15, A1, A3).
pub(crate) fn merge_backend_major(parts: Vec<Vec<Sample>>) -> Vec<Sample> {
    parts.into_iter().flatten().collect()
}

type TaskFn = Box<dyn FnOnce() + Send>;

struct TaskState {
    run: Option<TaskFn>,
    /// Number of uncompleted predecessors (0 or 1 — chains are linear).
    deps: usize,
    /// Tasks unblocked when this one completes.
    dependents: Vec<usize>,
    /// Serial-chain tag (the backend whose device this task mutates);
    /// `None` for independent tasks on fresh devices.
    lane: Option<String>,
    /// Chain predecessor, mirrored for [`Plan::spec`].
    after: Option<usize>,
}

/// Analysis view of one [`Plan`] task, exposed for static verification
/// (`gpu-lint`'s plan pass). All fields are public so checkers and
/// hazard-injection tests can also construct specs directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The task's id ([`Plan::add`]'s return value).
    pub id: usize,
    /// Serial-chain tag; tasks sharing a lane share mutable device state.
    pub lane: Option<String>,
    /// Ids this task waits for before starting.
    pub after: Vec<usize>,
}

/// Public description of a [`Plan`]'s dependency structure (tasks in id
/// order), produced by [`Plan::spec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanSpec {
    /// Every task, ordered by id.
    pub tasks: Vec<TaskSpec>,
}

/// A dependency-ordered set of tasks for [`Plan::run`].
#[derive(Default)]
pub struct Plan {
    tasks: Vec<TaskState>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Task bodies are opaque closures; the structural view is spec().
        write!(f, "Plan({} tasks)", self.tasks.len())
    }
}

struct Queue {
    ready: VecDeque<usize>,
    completed: usize,
    panicked: bool,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Add a task; when `after` names an earlier task, this one becomes
    /// its chain successor and will not start before it completes.
    /// Returns the task's id.
    pub fn add(&mut self, after: Option<usize>, f: impl FnOnce() + Send + 'static) -> usize {
        self.push(None, after, Box::new(f))
    }

    /// [`Plan::add`] with a lane tag: tasks sharing a lane mutate the same
    /// device, so each one must chain on the lane's previous task. The tag
    /// only feeds [`Plan::spec`] (where `gpu-lint` checks that invariant);
    /// scheduling behaviour is identical to [`Plan::add`].
    pub(crate) fn add_on(
        &mut self,
        lane: &str,
        after: Option<usize>,
        f: impl FnOnce() + Send + 'static,
    ) -> usize {
        self.push(Some(lane.to_string()), after, Box::new(f))
    }

    fn push(&mut self, lane: Option<String>, after: Option<usize>, f: TaskFn) -> usize {
        let id = self.tasks.len();
        self.tasks.push(TaskState {
            run: Some(f),
            deps: 0,
            dependents: Vec::new(),
            lane,
            after,
        });
        if let Some(pred) = after {
            assert!(pred < id, "chain predecessor must already exist");
            self.tasks[pred].dependents.push(id);
            self.tasks[id].deps = 1;
        }
        id
    }

    /// Analysis view of the plan's dependency structure (see [`PlanSpec`]).
    pub fn spec(&self) -> PlanSpec {
        PlanSpec {
            tasks: self
                .tasks
                .iter()
                .enumerate()
                .map(|(id, t)| TaskSpec {
                    id,
                    lane: t.lane.clone(),
                    after: t.after.into_iter().collect(),
                })
                .collect(),
        }
    }

    /// Number of tasks in the plan.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the plan has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Execute every task on a fixed pool of `jobs` workers, respecting
    /// chain order. Returns when all tasks have completed. A panicking
    /// task aborts the remaining work and re-raises the panic here.
    pub fn run(mut self, jobs: usize) {
        let total = self.tasks.len();
        if total == 0 {
            return;
        }
        let jobs = jobs.max(1).min(total);
        let initial: VecDeque<usize> = (0..total).filter(|&i| self.tasks[i].deps == 0).collect();
        let queue = Mutex::new(Queue {
            ready: initial,
            completed: 0,
            panicked: false,
        });
        let cv = Condvar::new();
        let tasks: Vec<Mutex<TaskState>> = self.tasks.drain(..).map(Mutex::new).collect();

        let worker = || loop {
            let id = {
                let mut q = queue.lock().unwrap();
                loop {
                    if q.panicked || q.completed == total {
                        return;
                    }
                    if let Some(id) = q.ready.pop_front() {
                        break id;
                    }
                    q = cv.wait(q).unwrap();
                }
            };
            let run = tasks[id]
                .lock()
                .unwrap()
                .run
                .take()
                .expect("task runs once");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let mut q = queue.lock().unwrap();
            match outcome {
                Ok(()) => {
                    q.completed += 1;
                    let dependents = std::mem::take(&mut tasks[id].lock().unwrap().dependents);
                    for dep in dependents {
                        let mut t = tasks[dep].lock().unwrap();
                        t.deps -= 1;
                        if t.deps == 0 {
                            q.ready.push_back(dep);
                        }
                    }
                }
                Err(payload) => {
                    q.panicked = true;
                    drop(q);
                    cv.notify_all();
                    std::panic::resume_unwind(payload);
                }
            }
            cv.notify_all();
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
            let mut panic_payload = None;
            for h in handles {
                if let Err(p) = h.join() {
                    // Wake any workers still parked before re-raising.
                    queue.lock().unwrap().panicked = true;
                    cv.notify_all();
                    panic_payload.get_or_insert(p);
                }
            }
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn chains_run_in_order_and_everything_completes() {
        for jobs in [1, 2, 8] {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut plan = Plan::new();
            // Three chains of three tasks plus two free tasks.
            for chain in 0..3u32 {
                let mut prev = None;
                for step in 0..3u32 {
                    let log = log.clone();
                    prev = Some(plan.add(prev, move || {
                        log.lock().unwrap().push((chain, step));
                    }));
                }
            }
            for _ in 0..2 {
                let log = log.clone();
                plan.add(None, move || log.lock().unwrap().push((99, 0)));
            }
            assert_eq!(plan.len(), 11);
            plan.run(jobs);
            let log = log.lock().unwrap();
            assert_eq!(log.len(), 11, "jobs={jobs}");
            for chain in 0..3u32 {
                let steps: Vec<u32> = log
                    .iter()
                    .filter(|(c, _)| *c == chain)
                    .map(|(_, s)| *s)
                    .collect();
                assert_eq!(steps, vec![0, 1, 2], "chain order at jobs={jobs}");
            }
        }
    }

    #[test]
    fn spec_reports_lanes_and_chain_edges() {
        let mut plan = Plan::new();
        let a = plan.add_on("Thrust", None, || {});
        let b = plan.add_on("Thrust", Some(a), || {});
        let free = plan.add(None, || {});
        let spec = plan.spec();
        assert_eq!(
            spec.tasks,
            vec![
                TaskSpec {
                    id: a,
                    lane: Some("Thrust".into()),
                    after: vec![],
                },
                TaskSpec {
                    id: b,
                    lane: Some("Thrust".into()),
                    after: vec![a],
                },
                TaskSpec {
                    id: free,
                    lane: None,
                    after: vec![],
                },
            ]
        );
        plan.run(2); // tagging never changes execution
    }

    #[test]
    fn pool_uses_at_most_jobs_workers() {
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut plan = Plan::new();
        for _ in 0..16 {
            let active = active.clone();
            let peak = peak.clone();
            plan.add(None, move || {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        plan.run(2);
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn panic_in_a_task_propagates() {
        let mut plan = Plan::new();
        plan.add(None, || panic!("boom"));
        for _ in 0..4 {
            plan.add(None, || {});
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.run(2)));
        assert!(err.is_err());
    }

    #[test]
    fn merge_x_major_interleaves_and_skips_empty_parts() {
        let s = |backend: &str, x: u64| Sample {
            backend: backend.into(),
            x,
            nanos: 1,
            cold_nanos: 1,
            launches: 1,
            kernel_bytes: 1,
        };
        let parts = vec![
            vec![vec![s("A", 1)], vec![s("A", 2)]],
            vec![], // backend that skips the experiment
            vec![vec![s("B", 1), s("B2", 1)], vec![s("B", 2)]],
        ];
        let merged = merge_x_major(parts);
        let order: Vec<(String, u64)> = merged.iter().map(|m| (m.backend.clone(), m.x)).collect();
        assert_eq!(
            order,
            vec![
                ("A".into(), 1),
                ("B".into(), 1),
                ("B2".into(), 1),
                ("A".into(), 2),
                ("B".into(), 2)
            ]
        );
    }
}
