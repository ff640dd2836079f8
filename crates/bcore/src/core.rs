//! The developer-facing core abstraction: [`AcceleratorCore`] and
//! [`CoreContext`].
//!
//! A Beethoven *Core* (§II-A) is "a custom functional unit that the
//! developer implements". In this reproduction a core is a cycle-ticked
//! state machine: each fabric cycle the harness calls
//! [`AcceleratorCore::tick`] with a [`CoreContext`] exposing the command
//! queue, the response port, and every memory primitive the core's
//! configuration declared.

use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use bsim::{Cycle, Receiver, Sender, SimCtx, Stats};

use crate::command::{RoccResponse, UnpackedCommand};
use crate::intracore::{RemoteWrite, RemoteWritePort, RemoteWriteSink};
use crate::primitives::{Reader, Scratchpad, Writer};

/// A user-implemented accelerator core.
///
/// Implementations receive a `tick` per fabric cycle. A typical core:
///
/// 1. calls [`CoreContext::take_command`] when idle,
/// 2. drives its [`Reader`]s / [`Writer`]s / [`Scratchpad`]s,
/// 3. calls [`CoreContext::respond`] when the command completes.
pub trait AcceleratorCore {
    /// Advances the core by one cycle. `sim` is the simulation context that
    /// owns the channel arena behind the context's command/response/memory
    /// plumbing; cores pass it back into [`CoreContext`] calls that move
    /// data (and otherwise ignore it).
    fn tick(&mut self, sim: &SimCtx, ctx: &mut CoreContext);

    /// Whether the core has no internal work pending and its next `tick`
    /// would do nothing until a command or remote write arrives.
    ///
    /// The default is `false` — the harness then ticks the core every
    /// cycle, which is always correct. Cores with an explicit idle state
    /// can override this so the simulation fast-forwards across the gaps
    /// between commands; an override must only return `true` when `tick`
    /// is a provable no-op given unchanged inputs.
    fn idle(&self) -> bool {
        false
    }
}

mod sealed {
    /// Converts a typed port handle to and from its slot in a [`super::Ports`].
    pub trait Handle: Copy {
        fn from_slot(slot: usize) -> Self;
        fn slot(self) -> usize;
    }
}

macro_rules! port_handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(usize);

        impl sealed::Handle for $name {
            fn from_slot(slot: usize) -> Self {
                Self(slot)
            }

            fn slot(self) -> usize {
                self.0
            }
        }
    };
}

port_handle!(
    /// A resolved read channel: [`CoreContext::reader_id`] hands it out,
    /// `ctx.readers[id]` uses it.
    ReaderId
);
port_handle!(
    /// A resolved write channel: [`CoreContext::writer_id`] hands it out,
    /// `ctx.writers[id]` uses it.
    WriterId
);
port_handle!(
    /// A resolved scratchpad: [`CoreContext::scratchpad_id`] hands it out,
    /// `ctx.scratchpads[id]` uses it.
    ScratchpadId
);
port_handle!(
    /// A resolved intra-core out port: [`CoreContext::intra_out_id`] hands
    /// it out, `ctx.intra_outs[id]` uses it.
    IntraOutId
);

/// One family of a core's primitives (its readers, writers, scratchpads or
/// intra-core out ports), addressed by the family's handle type `I`.
///
/// Entries are stored sorted by declared name, channels of one name in
/// index order; the harness ticks them in that order.
pub struct Ports<T, I> {
    names: Vec<String>,
    items: Vec<T>,
    handle: PhantomData<fn() -> I>,
}

impl<T, I: sealed::Handle> Ports<T, I> {
    /// Stores `named` sorted by name; the sort is stable, so the channels
    /// of one name keep their index order.
    pub(crate) fn new(mut named: Vec<(String, T)>) -> Self {
        named.sort_by(|a, b| a.0.cmp(&b.0));
        let (names, items) = named.into_iter().unzip();
        Self {
            names,
            items,
            handle: PhantomData,
        }
    }

    /// The handles of every entry named `name`, in channel order.
    fn named(&self, name: &str) -> std::ops::Range<usize> {
        let start = self.names.partition_point(|n| n.as_str() < name);
        let end = self.names.partition_point(|n| n.as_str() <= name);
        start..end
    }

    /// Channel `idx` of `name`, if declared.
    fn resolve(&self, name: &str, idx: usize) -> Option<I> {
        let range = self.named(name);
        (idx < range.len()).then(|| I::from_slot(range.start + idx))
    }

    /// Mutable borrows of several distinct entries at once, e.g. a source
    /// and a destination scratchpad in one datapath cycle.
    ///
    /// # Panics
    ///
    /// Panics if a handle appears twice in `ids`.
    pub fn disjoint_mut<const N: usize>(&mut self, ids: [I; N]) -> [&mut T; N] {
        match self.items.get_disjoint_mut(ids.map(I::slot)) {
            Ok(items) => items,
            Err(e) => panic!("disjoint port borrow: {e}"),
        }
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

impl<T, I: sealed::Handle> Index<I> for Ports<T, I> {
    type Output = T;

    fn index(&self, id: I) -> &T {
        &self.items[id.slot()]
    }
}

impl<T, I: sealed::Handle> IndexMut<I> for Ports<T, I> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.slot()]
    }
}

impl<T, I> std::fmt::Debug for Ports<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.names).finish()
    }
}

/// Everything a core can touch during a tick: its identity, its clock, its
/// declared memory primitives, and its command/response IO.
///
/// Primitives live in four [`Ports`] families. A core resolves each name
/// to a handle once — usually in the constructor its
/// [`crate::SystemConfig`] factory runs at elaboration, which receives
/// this context — and indexes with the handle every cycle:
/// `ctx.readers[self.a].pop_u32()`. The fields are disjoint, so one cycle
/// can drive a reader and a writer (or a scratchpad and the reader that
/// fills it) at the same time. The by-name accessors ([`reader`],
/// [`scratchpad`], ...) resolve and index in one step, for per-command
/// code and tests.
///
/// [`reader`]: CoreContext::reader
/// [`scratchpad`]: CoreContext::scratchpad
pub struct CoreContext {
    system_id: u16,
    core_id: u16,
    now: Cycle,
    /// Read channels (the paper's `getReaderModule`).
    pub readers: Ports<Reader, ReaderId>,
    /// Write channels (`getWriterModule`).
    pub writers: Ports<Writer, WriterId>,
    /// Scratchpads, including intra-core In ports (`getScratchpad`).
    pub scratchpads: Ports<Scratchpad, ScratchpadId>,
    /// Intra-core Out ports (`getIntraCoreMemOut`).
    pub intra_outs: Ports<RemoteWritePort, IntraOutId>,
    intra_sinks: Vec<RemoteWriteSink>,
    cmd_rx: Receiver<UnpackedCommand>,
    resp_tx: Sender<RoccResponse>,
    stats: Stats,
}

impl CoreContext {
    /// Assembles a context (called by the elaborator).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        system_id: u16,
        core_id: u16,
        readers: Vec<(String, Reader)>,
        writers: Vec<(String, Writer)>,
        scratchpads: Vec<(String, Scratchpad)>,
        cmd_rx: Receiver<UnpackedCommand>,
        resp_tx: Sender<RoccResponse>,
        stats: Stats,
    ) -> Self {
        Self {
            system_id,
            core_id,
            now: 0,
            readers: Ports::new(readers),
            writers: Ports::new(writers),
            scratchpads: Ports::new(scratchpads),
            intra_outs: Ports::new(Vec::new()),
            intra_sinks: Vec::new(),
            cmd_rx,
            resp_tx,
            stats,
        }
    }

    /// Installs the core-to-core plumbing (called by the elaborator):
    /// the Out ports, and the inbound links with the name of the
    /// scratchpad each one lands in.
    ///
    /// # Panics
    ///
    /// Panics if a link targets a scratchpad this core does not declare.
    pub(crate) fn set_intracore(
        &mut self,
        outs: Vec<(String, RemoteWritePort)>,
        sinks: Vec<(String, Receiver<RemoteWrite>)>,
    ) {
        self.intra_outs = Ports::new(outs);
        self.intra_sinks = sinks
            .into_iter()
            .map(|(name, rx)| {
                let scratchpad = self.scratchpads.resolve(&name, 0).unwrap_or_else(|| {
                    panic!("intra-core sink targets unknown scratchpad '{name}'")
                });
                RemoteWriteSink { scratchpad, rx }
            })
            .collect();
    }

    /// This core's system id.
    pub fn system_id(&self) -> u16 {
        self.system_id
    }

    /// This core's index within its system.
    pub fn core_id(&self) -> u16 {
        self.core_id
    }

    /// The current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Shared stats bag for custom core counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Takes the next pending command, if any (the `io.req.fire` moment of
    /// the paper's Figure 2).
    pub fn take_command(&mut self, sim: &SimCtx) -> Option<UnpackedCommand> {
        let cmd = self.cmd_rx.recv(sim, self.now);
        if cmd.is_some() {
            self.stats.incr("commands_accepted");
        }
        cmd
    }

    /// Sends the command response (`io.resp.fire`). Returns false if the
    /// response channel is momentarily full — retry next cycle.
    pub fn respond(&mut self, sim: &SimCtx, data: u64) -> bool {
        if !self.resp_tx.can_send(sim) {
            return false;
        }
        self.resp_tx.send(
            sim,
            self.now,
            RoccResponse {
                system_id: self.system_id,
                core_id: self.core_id,
                data,
            },
        );
        self.stats.incr("responses_sent");
        true
    }

    /// The paper's `getReaderModule(name)` resolved once: the handle of
    /// channel 0 of a read stream.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared in the configuration — that is
    /// a programming error in the core, as in the real framework.
    pub fn reader_id(&self, name: &str) -> ReaderId {
        self.reader_id_at(name, 0)
    }

    /// `getReaderModule(name, idx)` resolved once.
    ///
    /// # Panics
    ///
    /// Panics on unknown name or index.
    pub fn reader_id_at(&self, name: &str, idx: usize) -> ReaderId {
        self.readers.resolve(name, idx).unwrap_or_else(|| {
            if self.readers.named(name).is_empty() {
                panic!("no read channel named '{name}'")
            }
            panic!("read channel '{name}' has no index {idx}")
        })
    }

    /// `getWriterModule(name)` resolved once: channel 0 of a write stream.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn writer_id(&self, name: &str) -> WriterId {
        self.writer_id_at(name, 0)
    }

    /// `getWriterModule(name, idx)` resolved once.
    ///
    /// # Panics
    ///
    /// Panics on unknown name or index.
    pub fn writer_id_at(&self, name: &str, idx: usize) -> WriterId {
        self.writers.resolve(name, idx).unwrap_or_else(|| {
            if self.writers.named(name).is_empty() {
                panic!("no write channel named '{name}'")
            }
            panic!("write channel '{name}' has no index {idx}")
        })
    }

    /// `getScratchpad(name)` resolved once.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn scratchpad_id(&self, name: &str) -> ScratchpadId {
        self.scratchpads
            .resolve(name, 0)
            .unwrap_or_else(|| panic!("no scratchpad named '{name}'"))
    }

    /// The appendix's `getIntraCoreMemOut(name)` resolved once.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn intra_out_id(&self, name: &str) -> IntraOutId {
        self.intra_outs
            .resolve(name, 0)
            .unwrap_or_else(|| panic!("no intra-core out port named '{name}'"))
    }

    /// Channel 0 of a read stream, by name.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn reader(&mut self, name: &str) -> &mut Reader {
        self.reader_at(name, 0)
    }

    /// A specific read channel, by name.
    ///
    /// # Panics
    ///
    /// Panics on unknown name or index.
    pub fn reader_at(&mut self, name: &str, idx: usize) -> &mut Reader {
        let id = self.reader_id_at(name, idx);
        &mut self.readers[id]
    }

    /// Channel 0 of a write stream, by name.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn writer(&mut self, name: &str) -> &mut Writer {
        self.writer_at(name, 0)
    }

    /// A specific write channel, by name.
    ///
    /// # Panics
    ///
    /// Panics on unknown name or index.
    pub fn writer_at(&mut self, name: &str, idx: usize) -> &mut Writer {
        let id = self.writer_id_at(name, idx);
        &mut self.writers[id]
    }

    /// A scratchpad, by name.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn scratchpad(&mut self, name: &str) -> &mut Scratchpad {
        let id = self.scratchpad_id(name);
        &mut self.scratchpads[id]
    }

    /// An intra-core out port, by name.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn intra_out(&mut self, name: &str) -> &mut RemoteWritePort {
        let id = self.intra_out_id(name);
        &mut self.intra_outs[id]
    }

    /// Borrows a scratchpad and a reader simultaneously, by name (needed
    /// by scratchpad init loops, which drive one with the other).
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn scratchpad_and_reader(
        &mut self,
        sp_name: &str,
        reader_name: &str,
    ) -> (&mut Scratchpad, &mut Reader) {
        let sp = self.scratchpad_id(sp_name);
        let reader = self.reader_id(reader_name);
        (&mut self.scratchpads[sp], &mut self.readers[reader])
    }

    /// Applies remote writes that have arrived over the intra-accelerator
    /// network (called by the harness before the core's tick, so a core
    /// observes writes with the modelled network latency).
    pub(crate) fn drain_remote_writes(&mut self, sim: &SimCtx, now: Cycle) {
        for sink in &self.intra_sinks {
            let sp = &mut self.scratchpads[sink.scratchpad];
            while let Some(write) = sink.rx.recv(sim, now) {
                sp.write(write.idx as usize, write.data);
            }
        }
    }

    /// Ticks every primitive (called by the harness after the core's tick).
    pub(crate) fn tick_primitives(&mut self, sim: &SimCtx, now: Cycle) {
        self.now = now;
        for reader in self.readers.iter_mut() {
            reader.tick(sim, now);
        }
        for writer in self.writers.iter_mut() {
            writer.tick(sim, now);
        }
    }

    pub(crate) fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Earliest cycle after `now` at which any primitive or inbound channel
    /// needs a tick, or `None` when everything is quiescent. Only
    /// meaningful while the core itself reports [`AcceleratorCore::idle`].
    pub(crate) fn next_event(&self, sim: &SimCtx, now: Cycle) -> Option<Cycle> {
        // Scratchpad init is driven from the core's own tick; an idle()
        // claim during init would be a core bug — stay awake regardless.
        if self.scratchpads.iter().any(Scratchpad::initializing) {
            return Some(now + 1);
        }
        let mut wake: Option<Cycle> = None;
        let mut consider = |e: Option<Cycle>| {
            if let Some(e) = e {
                let e = e.max(now + 1);
                wake = Some(wake.map_or(e, |w: Cycle| w.min(e)));
            }
        };
        for reader in self.readers.iter() {
            consider(reader.next_event(sim, now));
        }
        for writer in self.writers.iter() {
            consider(writer.next_event(sim, now));
        }
        consider(self.cmd_rx.next_visible_at(sim));
        for sink in &self.intra_sinks {
            consider(sink.rx.next_visible_at(sim));
        }
        wake
    }

    /// Hooks every channel [`CoreContext::next_event`] consults, so a
    /// sleeping harness is re-armed the moment new work arrives: a command,
    /// a remote write from another core, read data, or a write ack. The
    /// core's own `idle` flag can only change inside a tick, so these
    /// external inputs are the complete wake surface.
    pub(crate) fn register_wakes(&self, sim: &SimCtx, waker: &bsim::Waker) {
        self.cmd_rx.wake_on_send(sim, waker);
        for sink in &self.intra_sinks {
            sink.rx.wake_on_send(sim, waker);
        }
        for reader in self.readers.iter() {
            reader.register_wakes(sim, waker);
        }
        for writer in self.writers.iter() {
            writer.register_wakes(sim, waker);
        }
    }
}

impl std::fmt::Debug for CoreContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreContext")
            .field("system_id", &self.system_id)
            .field("core_id", &self.core_id)
            .field("now", &self.now)
            .field("readers", &self.readers.len())
            .field("writers", &self.writers.len())
            .field("scratchpads", &self.scratchpads.len())
            .finish()
    }
}

/// The component wrapper that ticks a core and its context inside the SoC
/// simulation.
pub(crate) struct CoreHarness {
    pub(crate) core: Box<dyn AcceleratorCore + Send>,
    pub(crate) ctx: CoreContext,
}

impl bsim::Component for CoreHarness {
    fn tick(&mut self, sim: &SimCtx, now: Cycle) {
        self.ctx.set_now(now);
        self.ctx.drain_remote_writes(sim, now);
        self.core.tick(sim, &mut self.ctx);
        self.ctx.tick_primitives(sim, now);
    }

    fn name(&self) -> &str {
        "core-harness"
    }

    fn next_event(&self, sim: &SimCtx, now: Cycle) -> Option<Cycle> {
        if !self.core.idle() {
            return Some(now + 1);
        }
        self.ctx.next_event(sim, now)
    }

    fn register_wakes(&self, sim: &SimCtx, waker: &bsim::Waker) {
        self.ctx.register_wakes(sim, waker);
    }
}
