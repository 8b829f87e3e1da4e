//! Real-time task model.
//!
//! Section II.B observes that manycore applications need two kinds of
//! computing resources: *"a time-slice of a time-shared core"* for
//! sequential code and *"the allocation of multiple space-shared cores
//! completely dedicated to executing a single application"* for parallel
//! code. A [`TaskSpec`] therefore carries an explicit serial phase, a
//! parallel phase with a useful width, and real-time attributes (arrival,
//! period, deadline, priority).
//!
//! Work is expressed in abstract *work units*; a core of speed `s` retires
//! `s` units per simulation tick (see [`crate::sched`]).

/// Identifies a task within a [`Workload`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// A (possibly periodic) real-time task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Human-readable name.
    pub name: String,
    /// Work units of the sequential phase of each job.
    pub(crate) serial_work: u64,
    /// Work units of the perfectly parallel phase of each job.
    pub(crate) parallel_work: u64,
    /// Maximum number of cores the parallel phase can use.
    pub width: usize,
    /// First release tick.
    pub arrival: u64,
    /// Release period (`None` = single job).
    pub period: Option<u64>,
    /// Relative deadline, in ticks after each release.
    pub deadline: u64,
    /// Number of jobs to release.
    pub jobs: usize,
    /// Scheduling priority; higher wins ties are broken by deadline.
    pub(crate) priority: u8,
}

impl TaskSpec {
    /// A sequential task: one phase of `work` units.
    pub fn sequential(name: impl Into<String>, work: u64, deadline: u64) -> Self {
        TaskSpec {
            name: name.into(),
            serial_work: work,
            parallel_work: 0,
            width: 1,
            arrival: 0,
            period: None,
            deadline,
            jobs: 1,
            priority: 0,
        }
    }

    /// A parallel task: `serial` units then `parallel` units spread over up
    /// to `width` cores.
    pub fn parallel(
        name: impl Into<String>,
        serial: u64,
        parallel: u64,
        width: usize,
        deadline: u64,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            serial_work: serial,
            parallel_work: parallel,
            width: width.max(1),
            arrival: 0,
            period: None,
            deadline,
            jobs: 1,
            priority: 0,
        }
    }

    /// Makes the task periodic with `period` and `jobs` releases.
    pub fn with_period(mut self, period: u64, jobs: usize) -> Self {
        self.period = Some(period);
        self.jobs = jobs;
        self
    }

    /// Sets the priority.
    pub fn with_priority(mut self, prio: u8) -> Self {
        self.priority = prio;
        self
    }

    /// Total work of one job.
    pub(crate) fn total_work(&self) -> u64 {
        self.serial_work + self.parallel_work
    }

    /// Lower bound on one job's completion ticks given `speed` units/tick
    /// and unlimited cores (the critical path).
    pub(crate) fn critical_path_ticks(&self, speed: u64) -> u64 {
        let par_per_core = self.parallel_work.div_ceil(self.width as u64);
        (self.serial_work + par_per_core).div_ceil(speed.max(1))
    }

    /// Long-run processor demand (utilisation) of the task at `speed`
    /// units/tick, as work-per-tick divided by speed; `None` if aperiodic.
    pub fn utilization(&self, speed: u64) -> Option<f64> {
        let p = self.period? as f64;
        Some(self.total_work() as f64 / (speed.max(1) as f64 * p))
    }
}

/// A set of tasks to schedule together — the *"multi-application usage
/// scenario"* of the paper's introduction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Workload {
    tasks: Vec<TaskSpec>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task, returning its id.
    pub fn push(&mut self, spec: TaskSpec) -> TaskId {
        self.tasks.push(spec);
        TaskId(self.tasks.len() - 1)
    }

    /// The task specs in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Mutable access to the task specs in id order (used by profile-based
    /// re-costing; tasks cannot be added or removed through this view).
    pub(crate) fn tasks_mut(&mut self) -> &mut [TaskSpec] {
        &mut self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl FromIterator<TaskSpec> for Workload {
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(iter: I) -> Self {
        Workload {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<TaskSpec> for Workload {
    fn extend<I: IntoIterator<Item = TaskSpec>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TaskSpec {
        /// Sets the first release tick.
        pub(crate) fn with_arrival(mut self, arrival: u64) -> Self {
            self.arrival = arrival;
            self
        }
    }

    #[test]
    fn builders_fill_fields() {
        let t = TaskSpec::parallel("enc", 10, 90, 4, 50)
            .with_period(100, 5)
            .with_arrival(7)
            .with_priority(3);
        assert_eq!(t.total_work(), 100);
        assert_eq!(t.period, Some(100));
        assert_eq!(t.jobs, 5);
        assert_eq!(t.arrival, 7);
        assert_eq!(t.priority, 3);
    }

    #[test]
    fn critical_path_respects_width() {
        let t = TaskSpec::parallel("p", 10, 80, 4, 100);
        // 10 serial + 80/4 parallel = 30 units at speed 1.
        assert_eq!(t.critical_path_ticks(1), 30);
        assert_eq!(t.critical_path_ticks(3), 10);
    }

    #[test]
    fn utilization_requires_period() {
        let t = TaskSpec::sequential("s", 50, 100);
        assert_eq!(t.utilization(1), None);
        let p = t.with_period(100, 10);
        assert!((p.utilization(1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn workload_collects() {
        let w: Workload = vec![
            TaskSpec::sequential("a", 10, 100).with_period(100, 1),
            TaskSpec::sequential("b", 30, 100).with_period(100, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(w.len(), 2);
        let total: f64 = w.tasks.iter().filter_map(|t| t.utilization(1)).sum();
        assert!((total - 0.4).abs() < 1e-12);
    }

    #[test]
    fn width_clamped_to_one() {
        let t = TaskSpec::parallel("p", 1, 1, 0, 10);
        assert_eq!(t.width, 1);
    }
}
