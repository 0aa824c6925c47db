//! The two CRT halves of an RSA private-key operation, and the helper
//! thread that runs the mod-q half while the signer runs the mod-p half.
//!
//! **Selection rule.** A signature offers its mod-q half to the helper
//! only when it is the only signature in flight in the process and the
//! host has more than one core. Otherwise, or while the helper is busy,
//! both halves run inline on the signer's thread. The helper is spawned on
//! the first offer. A host with one core, or one where the spawn fails,
//! never has a helper and always signs inline. Nothing else selects the
//! path: no option, no environment. The in-flight count, not the slot's
//! own refusal of a second post, makes the choice: with the slot alone
//! choosing, a sign that overlaps another still splits whenever the
//! helper is free, and puts three busy threads on two cores.
//!
//! **Job binding.** The helper owns one [`Slot`] and never queues. Posting
//! into it succeeds only from `Idle` and hands the signer the one [`Claim`].
//! The slot returns to `Idle` only when that claim is spent, by taking the
//! job back or by collecting its result. So while a job is in the slot, no
//! other signer can post, and its result can reach no one but its poster.
//! This holds whatever picks the path. Under the in-flight rule a post
//! finds the slot busy only after a signer unwound between posting and
//! collecting; the slot then never idles, and every later sign runs inline.
//! A half combined into the wrong signature would leave it wrong mod q
//! only, and `gcd(s^e − m, n)` would then reveal p.

use crate::bignum::{BigUint, Montgomery};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// One CRT half, `m ↦ m^(d mod (r − 1)) mod r` for a prime factor `r`.
pub(super) struct CrtHalf {
    mont: Montgomery,
    exp: BigUint,
}

impl CrtHalf {
    pub(super) fn new(mont: Montgomery, exp: BigUint) -> Self {
        CrtHalf { mont, exp }
    }

    /// The prime `r`.
    pub(super) fn prime(&self) -> &BigUint {
        self.mont.modulus()
    }

    /// The Montgomery context modulo `r`.
    pub(super) fn montgomery(&self) -> &Montgomery {
        &self.mont
    }

    fn pow(&self, m: &BigUint) -> BigUint {
        self.mont.mod_pow(m, &self.exp)
    }
}

impl fmt::Debug for CrtHalf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        f.debug_struct("CrtHalf").finish_non_exhaustive()
    }
}

/// `(m^dp mod p, m^dq mod q)`, the mod-q half on the helper when the
/// selection rule allows it.
pub(super) fn both_halves(p: &CrtHalf, q: &Arc<CrtHalf>, m: &BigUint) -> (BigUint, BigUint) {
    let in_flight = InFlight::enter();
    if in_flight.alone() {
        if let Some(helper) = HELPER.get_or_init(|| spawn(thread::available_parallelism().ok())) {
            return helper.split(p, q, m);
        }
    }
    (p.pow(m), q.pow(m))
}

/// Signatures in flight in this process.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// The process's helper, `None` where [`spawn`] declined or failed.
static HELPER: OnceLock<Option<Arc<Helper>>> = OnceLock::new();

/// One signature's place in [`IN_FLIGHT`], held for the whole signature.
struct InFlight {
    before: usize,
}

impl InFlight {
    fn enter() -> Self {
        InFlight {
            before: IN_FLIGHT.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// No other signature was in flight when this one entered.
    fn alone(&self) -> bool {
        self.before == 0
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Starts the helper thread, unless `cores` says there is no second core
/// to run it on (or is unknown), or the thread cannot be spawned.
fn spawn(cores: Option<NonZeroUsize>) -> Option<Arc<Helper>> {
    if cores.is_none_or(|cores| cores.get() < 2) {
        return None;
    }
    let helper = Arc::new(Helper::default());
    let served = Arc::clone(&helper);
    thread::Builder::new()
        .name("adlp-crt".into())
        .spawn(move || served.serve())
        .ok()?;
    Some(helper)
}

/// The mod-q half handed to the helper.
struct Job {
    half: Arc<CrtHalf>,
    m: BigUint,
}

impl Job {
    fn run(self) -> BigUint {
        self.half.pow(&self.m)
    }
}

/// The helper's single slot: `Idle → Posted` by a signer, `Posted →
/// Running → Done` by the helper, and back to `Idle` only through
/// [`Slot::collect`].
#[derive(Default)]
enum Slot {
    #[default]
    Idle,
    Posted(Job),
    Running,
    Done(BigUint),
}

/// The right to the job in a slot, held by the signer that posted it.
/// Only [`Slot::post`] makes one, and only [`Slot::collect`] spends it.
#[must_use]
struct Claim(());

/// What a signer holding a [`Claim`] finds in the slot.
enum Collected {
    /// The helper had not started it; the signer runs it.
    Job(Job),
    /// The helper's result.
    Result(BigUint),
    /// The helper is running it; the signer waits and collects again.
    Pending(Claim),
    /// The slot is idle, which no slot reaches while a claim is held; the
    /// signer runs its half again inline rather than wait for nothing.
    Lost,
}

impl Slot {
    /// Posts `job` if the slot is idle; hands it back otherwise.
    fn post(&mut self, job: Job) -> Result<Claim, Job> {
        match self {
            Slot::Idle => {
                *self = Slot::Posted(job);
                Ok(Claim(()))
            }
            _ => Err(job),
        }
    }

    /// The helper takes the posted job, if there is one.
    fn start(&mut self) -> Option<Job> {
        match std::mem::take(self) {
            Slot::Posted(job) => {
                *self = Slot::Running;
                Some(job)
            }
            other => {
                *self = other;
                None
            }
        }
    }

    /// The helper delivers the result of the job it started.
    fn finish(&mut self, out: BigUint) {
        if let Slot::Running = self {
            *self = Slot::Done(out);
        }
    }

    /// The poster takes back its job or its result; the slot is idle again
    /// unless the helper is still running the job.
    fn collect(&mut self, claim: Claim) -> Collected {
        match std::mem::take(self) {
            Slot::Posted(job) => Collected::Job(job),
            Slot::Done(out) => Collected::Result(out),
            Slot::Running => {
                *self = Slot::Running;
                Collected::Pending(claim)
            }
            Slot::Idle => Collected::Lost,
        }
    }
}

/// The helper thread's side: its slot and the one condition variable
/// both parties wait on (the helper for a post, the poster for a result).
#[derive(Default)]
struct Helper {
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Helper {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread's loop: run each posted job and deliver its result.
    fn serve(&self) {
        loop {
            let job = {
                let mut slot = self.lock();
                loop {
                    if let Some(job) = slot.start() {
                        break job;
                    }
                    slot = self.wait(slot);
                }
            };
            let out = job.run();
            self.lock().finish(out);
            self.wake.notify_all();
        }
    }

    /// Runs the mod-p half here and the mod-q half on the helper, or
    /// inline if the helper is busy or has not started it by the time the
    /// mod-p half is done.
    fn split(&self, p: &CrtHalf, q: &Arc<CrtHalf>, m: &BigUint) -> (BigUint, BigUint) {
        let job = Job {
            half: Arc::clone(q),
            m: m.clone(),
        };
        let posted = self.lock().post(job);
        let mut claim = match posted {
            Ok(claim) => claim,
            Err(job) => return (p.pow(m), job.run()),
        };
        self.wake.notify_all();
        let m1 = p.pow(m);
        let mut slot = self.lock();
        loop {
            match slot.collect(claim) {
                Collected::Job(job) => {
                    drop(slot);
                    return (m1, job.run());
                }
                Collected::Result(m2) => return (m1, m2),
                Collected::Lost => {
                    drop(slot);
                    return (m1, q.pow(m));
                }
                Collected::Pending(kept) => {
                    claim = kept;
                    slot = self.wait(slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> Arc<CrtHalf> {
        let mont = Montgomery::new(&BigUint::from_u64(97)).unwrap();
        Arc::new(CrtHalf::new(mont, BigUint::from_u64(5)))
    }

    fn job(m: u64) -> Job {
        Job {
            half: half(),
            m: BigUint::from_u64(m),
        }
    }

    #[test]
    fn posted_then_taken_back() {
        let mut slot = Slot::default();
        let claim = slot.post(job(3)).ok().unwrap();
        let Collected::Job(back) = slot.collect(claim) else {
            panic!("a job the helper never started comes back to its poster");
        };
        assert_eq!(back.run(), BigUint::from_u64(243 % 97));
        assert!(matches!(slot, Slot::Idle));
        // Taken back, the job can no longer be started by the helper.
        assert!(slot.start().is_none());
    }

    #[test]
    fn running_then_done() {
        let mut slot = Slot::default();
        let claim = slot.post(job(3)).ok().unwrap();
        let started = slot.start().unwrap();
        assert!(matches!(slot, Slot::Running));
        let Collected::Pending(claim) = slot.collect(claim) else {
            panic!("a running job is neither taken back nor done");
        };
        assert!(matches!(slot, Slot::Running));
        slot.finish(started.run());
        let Collected::Result(out) = slot.collect(claim) else {
            panic!("a finished job's result goes to its poster");
        };
        assert_eq!(out, BigUint::from_u64(243 % 97));
        assert!(matches!(slot, Slot::Idle));
    }

    #[test]
    fn a_second_signer_finds_the_helper_busy() {
        let mut slot = Slot::default();
        let claim = slot.post(job(3)).ok().unwrap();
        // Posted, running and done all turn a second post away with its job.
        let refused = slot.post(job(4)).err().unwrap();
        assert_eq!(refused.m, BigUint::from_u64(4));
        let started = slot.start().unwrap();
        assert!(slot.post(job(4)).is_err());
        assert!(slot.start().is_none());
        slot.finish(started.run());
        assert!(slot.post(job(4)).is_err());
        let Collected::Result(out) = slot.collect(claim) else {
            panic!("the first poster's result");
        };
        assert_eq!(out, BigUint::from_u64(243 % 97));
        // Collected, the slot takes the next job.
        assert!(slot.post(job(4)).is_ok());
    }

    #[test]
    fn finish_without_a_running_job_changes_nothing() {
        let mut slot = Slot::default();
        slot.finish(BigUint::one());
        assert!(matches!(slot, Slot::Idle));
        let _claim = slot.post(job(3)).ok().unwrap();
        slot.finish(BigUint::one());
        assert!(matches!(slot, Slot::Posted(_)));
    }

    #[test]
    fn split_takes_back_a_job_no_thread_serves() {
        // No thread serves this helper, so each job is still posted when
        // the signer's half is done, and the signer runs it itself.
        let helper = Helper::default();
        let (p, q) = (half(), half());
        for m in 0..20u64 {
            let m = BigUint::from_u64(m);
            assert_eq!(helper.split(&p, &q, &m), (p.pow(&m), q.pow(&m)));
            assert!(matches!(*helper.lock(), Slot::Idle));
        }
    }

    #[test]
    fn the_helper_thread_serves_each_job_to_its_poster() {
        let helper = spawn(NonZeroUsize::new(2)).unwrap();
        for m in 0..100u64 {
            let claim = helper.lock().post(job(m)).ok().unwrap();
            helper.wake.notify_all();
            let mut slot = helper.lock();
            while !matches!(*slot, Slot::Done(_)) {
                slot = helper.wait(slot);
            }
            let Collected::Result(out) = slot.collect(claim) else {
                panic!("a finished job's result goes to its poster");
            };
            assert_eq!(out, job(m).run());
        }
    }

    /// A half modulo an odd `bits`-bit number, with a `bits`-bit exponent.
    fn random_half(bits: usize, rng: &mut impl rand::RngCore) -> Arc<CrtHalf> {
        let mut r = BigUint::random_bits(bits, rng);
        r.set_bit(0);
        let mont = Montgomery::new(&r).unwrap();
        Arc::new(CrtHalf::new(mont, BigUint::random_bits(bits, rng)))
    }

    #[test]
    fn a_private_helper_splits_like_two_inline_halves() {
        // A helper of its own, so neither the process's helper nor other
        // tests' signatures decide the path. Halves of unequal length make
        // the signer finish first (it waits on the helper or takes the job
        // back) or last (it collects a finished result).
        use rand::SeedableRng;
        let helper = spawn(NonZeroUsize::new(2)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let pairs: Vec<_> = [(256, 512), (512, 1024), (512, 256), (384, 384)]
            .into_iter()
            .map(|(p, q)| (random_half(p, &mut rng), random_half(q, &mut rng)))
            .collect();
        for (p, q) in pairs.iter().cycle().take(300) {
            let m = BigUint::random_bits(512, &mut rng);
            assert_eq!(helper.split(p, q, &m), (p.pow(&m), q.pow(&m)));
        }
    }

    #[test]
    fn one_core_never_spawns_the_helper() {
        assert!(spawn(NonZeroUsize::new(1)).is_none());
        assert!(spawn(None).is_none());
    }
}
