//! An `Armci` wrapper that times every call it forwards.
//!
//! The traced run hands a [`Traced`] around the rank's `ArmciMpi` to the
//! program's own workload function, so the workload's traffic is split by
//! ARMCI call class without any instrumentation inside the program. Each
//! forwarded call is timed on the host clock (`Instant`) and on the rank's
//! virtual clock (`Armci::vtime`); time between top-level calls is the
//! application's (`app`). A call made from inside another call (an access
//! closure that calls back into ARMCI) is charged to its own class and
//! subtracted from the caller, so the classes plus `app` partition the
//! rank's elapsed time exactly. The identity accessors (`rank`, `nprocs`,
//! `world_group`, `vtime`) move no data and are forwarded untimed.

use armci::{
    AccKind, AccessMode, Armci, ArmciGroup, ArmciResult, GlobalAddr, IovDesc, NbHandle, RmwOp,
};
use std::cell::RefCell;
use std::time::Instant;

/// Call classes, in report order. Each trait method maps to one class.
pub const CLASSES: [&str; 15] = [
    "get_strided",
    "put_strided",
    "acc_strided",
    "contig",
    "iov",
    "nb",
    "wait",
    "fence",
    "barrier",
    "rmw",
    "mutex",
    "malloc",
    "free",
    "access_mode",
    "access",
];

#[derive(Clone, Copy)]
enum Class {
    GetStrided,
    PutStrided,
    AccStrided,
    Contig,
    Iov,
    Nb,
    Wait,
    Fence,
    Barrier,
    Rmw,
    Mutex,
    Malloc,
    Free,
    AccessMode,
    Access,
}

/// Totals of one call class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTotals {
    pub calls: u64,
    pub host_s: f64,
    pub virtual_s: f64,
}

/// One rank's split of its elapsed time, in both clocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Indexed like [`CLASSES`].
    pub classes: [ClassTotals; CLASSES.len()],
    pub app_host_s: f64,
    pub app_virtual_s: f64,
}

impl Breakdown {
    pub fn host_sum(&self) -> f64 {
        self.app_host_s + self.classes.iter().map(|c| c.host_s).sum::<f64>()
    }

    pub fn virtual_sum(&self) -> f64 {
        self.app_virtual_s + self.classes.iter().map(|c| c.virtual_s).sum::<f64>()
    }
}

struct Frame {
    class: Class,
    host0: Instant,
    virt0: f64,
    child_host: f64,
    child_virt: f64,
}

struct State {
    totals: Breakdown,
    stack: Vec<Frame>,
    /// End of the last top-level call: the start of the current `app` gap.
    gap_host: Instant,
    gap_virt: f64,
}

/// Timing wrapper around one rank's runtime handle.
pub struct Traced<'a, A: Armci + ?Sized> {
    inner: &'a A,
    state: RefCell<State>,
}

impl<'a, A: Armci + ?Sized> Traced<'a, A> {
    /// Starts the clocks: everything until the first call is `app` time.
    pub fn new(inner: &'a A) -> Self {
        Traced {
            inner,
            state: RefCell::new(State {
                totals: Breakdown::default(),
                stack: Vec::new(),
                gap_host: Instant::now(),
                gap_virt: inner.vtime(),
            }),
        }
    }

    /// Stops the clocks and returns the split.
    pub fn finish(self) -> Breakdown {
        let (host, virt) = (Instant::now(), self.inner.vtime());
        let mut st = self.state.into_inner();
        assert!(st.stack.is_empty(), "finish() inside a traced call");
        st.totals.app_host_s += (host - st.gap_host).as_secs_f64();
        st.totals.app_virtual_s += virt - st.gap_virt;
        st.totals
    }

    fn timed<R>(&self, class: Class, f: impl FnOnce() -> R) -> R {
        let (host0, virt0) = (Instant::now(), self.inner.vtime());
        {
            let mut st = self.state.borrow_mut();
            if st.stack.is_empty() {
                st.totals.app_host_s += (host0 - st.gap_host).as_secs_f64();
                st.totals.app_virtual_s += virt0 - st.gap_virt;
            }
            st.stack.push(Frame {
                class,
                host0,
                virt0,
                child_host: 0.0,
                child_virt: 0.0,
            });
        }
        let out = f();
        let (host1, virt1) = (Instant::now(), self.inner.vtime());
        let mut st = self.state.borrow_mut();
        let fr = st.stack.pop().expect("traced call frame");
        let (dh, dv) = ((host1 - fr.host0).as_secs_f64(), virt1 - fr.virt0);
        let t = &mut st.totals.classes[fr.class as usize];
        t.calls += 1;
        t.host_s += dh - fr.child_host;
        t.virtual_s += dv - fr.child_virt;
        match st.stack.last_mut() {
            Some(parent) => {
                parent.child_host += dh;
                parent.child_virt += dv;
            }
            None => {
                st.gap_host = host1;
                st.gap_virt = virt1;
            }
        }
        out
    }
}

impl<A: Armci + ?Sized> Armci for Traced<'_, A> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn world_group(&self) -> ArmciGroup {
        self.inner.world_group()
    }

    fn vtime(&self) -> f64 {
        self.inner.vtime()
    }

    fn malloc_group(&self, bytes: usize, group: &ArmciGroup) -> ArmciResult<Vec<GlobalAddr>> {
        self.timed(Class::Malloc, || self.inner.malloc_group(bytes, group))
    }

    fn malloc(&self, bytes: usize) -> ArmciResult<Vec<GlobalAddr>> {
        self.timed(Class::Malloc, || self.inner.malloc(bytes))
    }

    fn free_group(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        self.timed(Class::Free, || self.inner.free_group(addr, group))
    }

    fn free(&self, addr: GlobalAddr) -> ArmciResult<()> {
        self.timed(Class::Free, || self.inner.free(addr))
    }

    fn set_access_mode(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
        mode: AccessMode,
    ) -> ArmciResult<()> {
        self.timed(Class::AccessMode, || {
            self.inner.set_access_mode(addr, group, mode)
        })
    }

    fn get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<()> {
        self.timed(Class::Contig, || self.inner.get(src, dst))
    }

    fn put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.timed(Class::Contig, || self.inner.put(src, dst))
    }

    fn acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.timed(Class::Contig, || self.inner.acc(kind, src, dst))
    }

    fn copy(&self, src: GlobalAddr, dst: GlobalAddr, bytes: usize) -> ArmciResult<()> {
        self.timed(Class::Contig, || self.inner.copy(src, dst, bytes))
    }

    fn get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.timed(Class::GetStrided, || {
            self.inner
                .get_strided(src, src_strides, dst, dst_strides, count)
        })
    }

    fn put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.timed(Class::PutStrided, || {
            self.inner
                .put_strided(src, src_strides, dst, dst_strides, count)
        })
    }

    fn acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.timed(Class::AccStrided, || {
            self.inner
                .acc_strided(kind, src, src_strides, dst, dst_strides, count)
        })
    }

    fn get_iov(&self, desc: &IovDesc, local: &mut [u8]) -> ArmciResult<()> {
        self.timed(Class::Iov, || self.inner.get_iov(desc, local))
    }

    fn put_iov(&self, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.timed(Class::Iov, || self.inner.put_iov(desc, local))
    }

    fn acc_iov(&self, kind: AccKind, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.timed(Class::Iov, || self.inner.acc_iov(kind, desc, local))
    }

    fn nb_get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || self.inner.nb_get(src, dst))
    }

    fn nb_put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || self.inner.nb_put(src, dst))
    }

    fn nb_acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || self.inner.nb_acc(kind, src, dst))
    }

    fn nb_get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || {
            self.inner
                .nb_get_strided(src, src_strides, dst, dst_strides, count)
        })
    }

    fn nb_put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || {
            self.inner
                .nb_put_strided(src, src_strides, dst, dst_strides, count)
        })
    }

    fn nb_acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.timed(Class::Nb, || {
            self.inner
                .nb_acc_strided(kind, src, src_strides, dst, dst_strides, count)
        })
    }

    fn wait(&self, handle: NbHandle) -> ArmciResult<()> {
        self.timed(Class::Wait, || self.inner.wait(handle))
    }

    fn wait_all(&self, handles: Vec<NbHandle>) -> ArmciResult<()> {
        self.timed(Class::Wait, || self.inner.wait_all(handles))
    }

    fn fence(&self, proc: usize) -> ArmciResult<()> {
        self.timed(Class::Fence, || self.inner.fence(proc))
    }

    fn fence_all(&self) -> ArmciResult<()> {
        self.timed(Class::Fence, || self.inner.fence_all())
    }

    fn barrier(&self) {
        self.timed(Class::Barrier, || self.inner.barrier())
    }

    fn rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        self.timed(Class::Rmw, || self.inner.rmw(op, target))
    }

    fn create_mutexes(&self, count: usize) -> ArmciResult<usize> {
        self.timed(Class::Mutex, || self.inner.create_mutexes(count))
    }

    fn lock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        self.timed(Class::Mutex, || self.inner.lock_mutex(handle, mutex, proc))
    }

    fn unlock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        self.timed(Class::Mutex, || {
            self.inner.unlock_mutex(handle, mutex, proc)
        })
    }

    fn destroy_mutexes(&self, handle: usize) -> ArmciResult<()> {
        self.timed(Class::Mutex, || self.inner.destroy_mutexes(handle))
    }

    fn access_mut(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()> {
        self.timed(Class::Access, || self.inner.access_mut(addr, len, f))
    }

    fn access(&self, addr: GlobalAddr, len: usize, f: &mut dyn FnMut(&[u8])) -> ArmciResult<()> {
        self.timed(Class::Access, || self.inner.access(addr, len, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci::ArmciExt;
    use mpisim::Runtime;

    fn class(name: &str) -> usize {
        CLASSES.iter().position(|c| *c == name).unwrap()
    }

    #[test]
    fn classes_and_app_partition_elapsed_time() {
        let out = Runtime::run(2, |p| {
            let rt = armci_mpi::ArmciMpi::new(p);
            let v0 = p.clock().now();
            let tr = Traced::new(&rt);
            let bases = tr.malloc(64).unwrap();
            tr.barrier();
            tr.fetch_add(bases[0], 1).unwrap();
            p.compute(1e-3);
            // A nested call from inside an access closure is charged to
            // its own class, not twice.
            tr.access(bases[p.rank()], 8, &mut |_| tr.fence_all().unwrap())
                .unwrap();
            tr.barrier();
            tr.free(bases[p.rank()]).unwrap();
            let b = tr.finish();
            (b, p.clock().now() - v0)
        });
        for (b, elapsed) in out {
            assert_eq!(b.classes[class("malloc")].calls, 1);
            assert_eq!(b.classes[class("barrier")].calls, 2);
            assert_eq!(b.classes[class("rmw")].calls, 1);
            assert_eq!(b.classes[class("access")].calls, 1);
            assert_eq!(b.classes[class("fence")].calls, 1);
            assert!(b.app_virtual_s >= 1e-3);
            assert!((b.virtual_sum() - elapsed).abs() <= 1e-12);
        }
    }
}
