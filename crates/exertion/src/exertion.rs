//! Exertions: tasks, jobs and control strategies.
//!
//! "An *exertion task* … is an elementary service request … A composite
//! exertion called an *exertion job* … is defined hierarchically in terms
//! of tasks and other jobs" (§IV.D). An exertion bundles *data* (its
//! [`Context`]), *operations* (its [`Signature`]) and *control strategy*
//! ([`ControlStrategy`]).

use std::sync::Arc;

use crate::context::Context;

/// Names an operation on a remote interface, plus an optional provider
/// name pin ("use Neem-Sensor specifically, not any SensorDataAccessor").
///
/// The fields never change once a signature is built and the same
/// signature is sent on every read of a provider, so they are shared:
/// cloning a signature copies no text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Remote interface the provider must implement.
    pub interface: Arc<str>,
    /// Operation selector within that interface (e.g. `"getValue"`).
    pub selector: Arc<str>,
    /// Pin to a provider with this `Name` attribute, if set.
    pub provider_name: Option<Arc<str>>,
}

impl Signature {
    pub fn new(interface: impl AsRef<str>, selector: impl AsRef<str>) -> Signature {
        Signature {
            interface: interface.as_ref().into(),
            selector: selector.as_ref().into(),
            provider_name: None,
        }
    }

    /// Pin the signature to a named provider.
    pub fn on(mut self, provider: impl AsRef<str>) -> Signature {
        self.provider_name = Some(provider.as_ref().into());
        self
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        12 + self.interface.len()
            + self.selector.len()
            + self.provider_name.as_ref().map_or(0, |p| p.len())
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.interface, self.selector)?;
        if let Some(p) = &self.provider_name {
            write!(f, "@{p}")?;
        }
        Ok(())
    }
}

/// Where an exertion stands.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ExertionStatus {
    #[default]
    Initial,
    Running,
    Done,
    Failed(String),
}

impl ExertionStatus {
    pub fn is_done(&self) -> bool {
        *self == ExertionStatus::Done
    }

    pub fn is_failed(&self) -> bool {
        matches!(self, ExertionStatus::Failed(_))
    }
}

/// How a job's children execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Flow {
    /// One after another (context flows forward).
    #[default]
    Sequence,
    /// All at once (fork/max-merge in the simulation).
    Parallel,
}

/// How work reaches providers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Access {
    /// The jobber pushes tasks directly to looked-up providers.
    #[default]
    Push,
    /// Tasks are written into the exertion space; providers pull matching
    /// entries (the spacer coordinates).
    Pull,
}

/// A job's control strategy: "an EO program is composed of metainstructions
/// with its own *control strategy*".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ControlStrategy {
    pub flow: Flow,
    pub access: Access,
}

impl ControlStrategy {
    pub fn sequence() -> ControlStrategy {
        ControlStrategy {
            flow: Flow::Sequence,
            access: Access::Push,
        }
    }

    pub fn parallel() -> ControlStrategy {
        ControlStrategy {
            flow: Flow::Parallel,
            access: Access::Push,
        }
    }

    pub fn pull(mut self) -> ControlStrategy {
        self.access = Access::Pull;
        self
    }
}

/// An elementary service request.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Shared like the signature: a composite re-sends the same label on
    /// every read.
    pub name: Arc<str>,
    pub signature: Signature,
    pub context: Context,
    pub status: ExertionStatus,
    /// Execution trace: which peers exerted this task (for diagnostics and
    /// the browser). Each provider builds its line once and shares it.
    pub trace: Vec<Arc<str>>,
}

impl Task {
    pub fn new(name: impl AsRef<str>, signature: Signature, context: Context) -> Task {
        Task {
            name: name.as_ref().into(),
            signature,
            context,
            status: ExertionStatus::Initial,
            trace: Vec::new(),
        }
    }

    /// Mark failed with a reason (also records it in the context).
    pub fn fail(&mut self, reason: impl Into<String>) {
        let reason = reason.into();
        self.context
            .put(crate::context::paths::ERROR, reason.clone());
        self.status = ExertionStatus::Failed(reason);
    }

    /// Approximate wire size of the task en route.
    pub fn wire_size(&self) -> usize {
        16 + self.name.len() + self.signature.wire_size() + self.context.wire_size()
    }
}

/// A hierarchical composite request.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub name: String,
    pub exertions: Vec<Exertion>,
    pub strategy: ControlStrategy,
    /// The job's own context; child results are merged in under each
    /// child's name.
    pub context: Context,
    pub status: ExertionStatus,
}

impl Job {
    pub fn new(name: impl Into<String>, strategy: ControlStrategy) -> Job {
        Job {
            name: name.into(),
            exertions: Vec::new(),
            strategy,
            context: Context::new(),
            status: ExertionStatus::Initial,
        }
    }

    pub fn with(mut self, exertion: impl Into<Exertion>) -> Job {
        self.exertions.push(exertion.into());
        self
    }

    pub fn wire_size(&self) -> usize {
        24 + self.name.len()
            + self.context.wire_size()
            + self
                .exertions
                .iter()
                .map(Exertion::wire_size)
                .sum::<usize>()
    }
}

/// A task or a job.
#[derive(Clone, Debug, PartialEq)]
pub enum Exertion {
    Task(Task),
    Job(Job),
}

impl Exertion {
    pub fn name(&self) -> &str {
        match self {
            Exertion::Task(t) => &t.name,
            Exertion::Job(j) => &j.name,
        }
    }

    pub fn status(&self) -> &ExertionStatus {
        match self {
            Exertion::Task(t) => &t.status,
            Exertion::Job(j) => &j.status,
        }
    }

    /// The exertion's service context (job-level for jobs).
    pub fn context(&self) -> &Context {
        match self {
            Exertion::Task(t) => &t.context,
            Exertion::Job(j) => &j.context,
        }
    }

    pub fn context_mut(&mut self) -> &mut Context {
        match self {
            Exertion::Task(t) => &mut t.context,
            Exertion::Job(j) => &mut j.context,
        }
    }

    pub fn wire_size(&self) -> usize {
        match self {
            Exertion::Task(t) => t.wire_size(),
            Exertion::Job(j) => j.wire_size(),
        }
    }

    /// Total number of tasks in the tree.
    pub fn task_count(&self) -> usize {
        match self {
            Exertion::Task(_) => 1,
            Exertion::Job(j) => j.exertions.iter().map(Exertion::task_count).sum(),
        }
    }

    /// Depth of the exertion tree (a bare task is depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Exertion::Task(_) => 1,
            Exertion::Job(j) => 1 + j.exertions.iter().map(Exertion::depth).max().unwrap_or(0),
        }
    }
}

impl From<Task> for Exertion {
    fn from(t: Task) -> Self {
        Exertion::Task(t)
    }
}

impl From<Job> for Exertion {
    fn from(j: Job) -> Self {
        Exertion::Job(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_value_task(name: &str, provider: &str) -> Task {
        Task::new(
            name,
            Signature::new("SensorDataAccessor", "getValue").on(provider),
            Context::new(),
        )
    }

    #[test]
    fn signature_display_and_pin() {
        let s = Signature::new("SensorDataAccessor", "getValue");
        assert_eq!(s.to_string(), "SensorDataAccessor#getValue");
        let s = s.on("Neem-Sensor");
        assert_eq!(s.to_string(), "SensorDataAccessor#getValue@Neem-Sensor");
        assert!(s.wire_size() > 30);
    }

    #[test]
    fn task_failure_records_reason() {
        let mut t = get_value_task("read", "Neem-Sensor");
        assert_eq!(t.status, ExertionStatus::Initial);
        t.fail("battery dead");
        assert!(t.status.is_failed());
        assert!(!t.status.is_done());
        assert_eq!(
            t.context.get_str(crate::context::paths::ERROR),
            Some("battery dead")
        );
    }

    #[test]
    fn job_structure_metrics() {
        let job = Job::new("avg", ControlStrategy::parallel())
            .with(get_value_task("a", "Neem"))
            .with(get_value_task("b", "Jade"))
            .with(
                Job::new("inner", ControlStrategy::sequence()).with(get_value_task("c", "Coral")),
            );
        let ex: Exertion = job.into();
        assert_eq!(ex.task_count(), 3);
        assert_eq!(ex.depth(), 3);
        assert_eq!(ex.name(), "avg");
        assert!(ex.wire_size() > 100);
    }

    #[test]
    fn strategies() {
        assert_eq!(ControlStrategy::sequence().flow, Flow::Sequence);
        assert_eq!(ControlStrategy::parallel().flow, Flow::Parallel);
        let pull = ControlStrategy::parallel().pull();
        assert_eq!(pull.access, Access::Pull);
        assert_eq!(ControlStrategy::default().access, Access::Push);
    }

    #[test]
    fn exertion_context_accessors() {
        let mut ex: Exertion = get_value_task("read", "Neem").into();
        ex.context_mut().put("x", 1i64);
        assert_eq!(ex.context().get_f64("x"), Some(1.0));
        assert_eq!(ex.status(), &ExertionStatus::Initial);
    }
}
