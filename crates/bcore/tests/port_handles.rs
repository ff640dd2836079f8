//! Port handles: names resolve once, at elaboration, to typed handles that
//! index the core's port families.
//!
//! Covers the panics for undeclared names, the disjoint-borrow guard, and
//! the order of primitives: a context stores each family sorted by name
//! (not by declaration), the order the harness ticks them in and the order
//! the name-keyed maps it replaced iterated in. A core that declares its
//! streams out of alphabetical order keeps its cycle count.

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    IntraCoreMemoryPortInConfig, IntraCoreMemoryPortOutConfig, ReadChannelConfig, ReaderId,
    ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig, WriterId,
};
use bplatform::Platform;

/// `out[i] = zeta[i] + 2·alpha[i] + 3·mid[i]`, with the three operand
/// streams declared in the order zeta, alpha, mid.
struct Weighted {
    zeta: ReaderId,
    alpha: ReaderId,
    mid: ReaderId,
    out: WriterId,
    remaining: u32,
    active: bool,
}

impl Weighted {
    fn new(ctx: &CoreContext) -> Self {
        Self {
            zeta: ctx.reader_id("zeta"),
            alpha: ctx.reader_id("alpha"),
            mid: ctx.reader_id("mid"),
            out: ctx.writer_id("out"),
            remaining: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for Weighted {
    fn idle(&self) -> bool {
        !self.active
    }

    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                let n = cmd.arg("n") as u32;
                let bytes = u64::from(n) * 4;
                let base = cmd.arg("base");
                ctx.readers[self.zeta].request(base, bytes).unwrap();
                ctx.readers[self.alpha]
                    .request(base + 0x4_0000, bytes)
                    .unwrap();
                ctx.readers[self.mid]
                    .request(base + 0x8_0000, bytes)
                    .unwrap();
                ctx.writers[self.out]
                    .request(base + 0xC_0000, bytes)
                    .unwrap();
                self.remaining = n;
                self.active = true;
            }
            return;
        }
        let [zeta, alpha, mid] = ctx.readers.disjoint_mut([self.zeta, self.alpha, self.mid]);
        let out = &mut ctx.writers[self.out];
        while self.remaining > 0 && out.can_push() {
            if zeta.available() < 4 || alpha.available() < 4 || mid.available() < 4 {
                break;
            }
            let z = zeta.pop_u32().unwrap();
            let a = alpha.pop_u32().unwrap();
            let m = mid.pop_u32().unwrap();
            out.push_u32(z.wrapping_add(2 * a).wrapping_add(3 * m));
            self.remaining -= 1;
        }
        if self.remaining == 0 && out.done() && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

fn weighted_config() -> AcceleratorConfig {
    let spec = AccelCommandSpec::new(
        "weighted",
        vec![
            ("base".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(20)),
        ],
    );
    AcceleratorConfig::new().with_system(
        SystemConfig::new("Weighted", 1, spec, |ctx| Box::new(Weighted::new(ctx)))
            .with_read(ReadChannelConfig::new("zeta", 4))
            .with_read(ReadChannelConfig::new("alpha", 4))
            .with_read(ReadChannelConfig::new("mid", 4))
            .with_write(WriteChannelConfig::new("out", 4)),
    )
}

/// Simulated cycles of one 3000-word `weighted` command, measured when
/// the context kept its ports in name-keyed maps.
const WEIGHTED_CYCLES: u64 = 736;

#[test]
fn out_of_order_declarations_keep_the_name_ordered_cycle_count() {
    let mut soc = elaborate(weighted_config(), &Platform::sim()).unwrap();
    let n = 3000u32;
    let base = 0x10_0000u64;
    let zeta: Vec<u32> = (0..n).map(|i| i * 7).collect();
    let alpha: Vec<u32> = (0..n).map(|i| i ^ 0x55).collect();
    let mid: Vec<u32> = (0..n).map(|i| 1_000_000 - i).collect();
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write_u32_slice(base, &zeta);
        mem.write_u32_slice(base + 0x4_0000, &alpha);
        mem.write_u32_slice(base + 0x8_0000, &mid);
    }
    let args = [("base".to_owned(), base), ("n".to_owned(), u64::from(n))]
        .into_iter()
        .collect();
    let start = soc.now();
    let token = soc.send_command(0, 0, &args).unwrap();
    soc.run_until_response(token, 10_000_000).unwrap();
    let cycles = soc.now() - start;
    let out = soc
        .memory()
        .borrow()
        .read_u32_slice(base + 0xC_0000, n as usize);
    for i in 0..n as usize {
        let want = zeta[i].wrapping_add(2 * alpha[i]).wrapping_add(3 * mid[i]);
        assert_eq!(out[i], want, "word {i}");
    }
    assert_eq!(cycles, WEIGHTED_CYCLES, "tick order of the ports moved");
}

/// A core that resolves `port` in its constructor (at elaboration).
struct Probe;

impl AcceleratorCore for Probe {
    fn tick(&mut self, _sim: &bsim::SimCtx, _ctx: &mut CoreContext) {}
}

fn elaborate_probe(resolve: impl Fn(&CoreContext) + 'static) {
    let spec = AccelCommandSpec::new("go", vec![("n".to_owned(), FieldType::U(8))]);
    let sink_spec = AccelCommandSpec::new("sink", vec![("n".to_owned(), FieldType::U(8))]);
    let cfg = AcceleratorConfig::new()
        .with_system(
            SystemConfig::new("Probe", 1, spec, move |ctx| {
                resolve(ctx);
                Box::new(Probe)
            })
            .with_read(ReadChannelConfig::new("in", 4).with_channels(2))
            .with_read(ReadChannelConfig::new("aux", 4))
            .with_write(WriteChannelConfig::new("out", 4))
            .with_scratchpad(ScratchpadConfig::new("pad", 32, 16))
            .with_intra_out(IntraCoreMemoryPortOutConfig::new("feed", "Sink", "inbox")),
        )
        .with_system(
            SystemConfig::new("Sink", 1, sink_spec, |_| Box::new(Probe))
                .with_intra_in(IntraCoreMemoryPortInConfig::new("inbox", 32, 16)),
        );
    elaborate(cfg, &Platform::sim()).unwrap();
}

#[test]
fn declared_names_resolve_to_their_own_ports() {
    elaborate_probe(|ctx| {
        let (in0, in1) = (ctx.reader_id("in"), ctx.reader_id_at("in", 1));
        assert_ne!(in0, in1);
        assert_eq!(in0, ctx.reader_id_at("in", 0));
        assert_eq!(ctx.readers[in1].config().name, "in");
        assert_eq!(ctx.writers[ctx.writer_id("out")].config().name, "out");
        assert_eq!(ctx.scratchpads[ctx.scratchpad_id("pad")].name(), "pad");
        assert_eq!(ctx.intra_outs[ctx.intra_out_id("feed")].fanout(), 1);
    });
}

#[test]
fn ports_are_stored_in_name_order() {
    elaborate_probe(|ctx| {
        assert_eq!(format!("{:?}", ctx.readers), r#"["aux", "in", "in"]"#);
        assert_eq!(format!("{:?}", ctx.reader_id("aux")), "ReaderId(0)");
        assert_eq!(format!("{:?}", ctx.reader_id_at("in", 1)), "ReaderId(2)");
    });
}

#[test]
#[should_panic(expected = "no read channel named 'nope'")]
fn unknown_reader_name_panics() {
    elaborate_probe(|ctx| {
        ctx.reader_id("nope");
    });
}

#[test]
#[should_panic(expected = "read channel 'in' has no index 2")]
fn out_of_range_reader_channel_panics() {
    elaborate_probe(|ctx| {
        ctx.reader_id_at("in", 2);
    });
}

#[test]
#[should_panic(expected = "no write channel named 'nope'")]
fn unknown_writer_name_panics() {
    elaborate_probe(|ctx| {
        ctx.writer_id("nope");
    });
}

#[test]
#[should_panic(expected = "no scratchpad named 'nope'")]
fn unknown_scratchpad_name_panics() {
    elaborate_probe(|ctx| {
        ctx.scratchpad_id("nope");
    });
}

#[test]
#[should_panic(expected = "no intra-core out port named 'nope'")]
fn unknown_out_port_name_panics() {
    elaborate_probe(|ctx| {
        ctx.intra_out_id("nope");
    });
}

/// On its first command, borrows the same scratchpad twice.
struct DoubleBorrow {
    pad: ScratchpadId,
}

impl AcceleratorCore for DoubleBorrow {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if ctx.take_command(sim).is_some() {
            let [a, b] = ctx.scratchpads.disjoint_mut([self.pad, self.pad]);
            a.write(0, b.read(0));
        }
    }
}

#[test]
#[should_panic(expected = "overlapping indices")]
fn disjoint_borrow_of_one_handle_twice_panics() {
    let spec = AccelCommandSpec::new("go", vec![("n".to_owned(), FieldType::U(8))]);
    let cfg = AcceleratorConfig::new().with_system(
        SystemConfig::new("Twice", 1, spec, |ctx| {
            Box::new(DoubleBorrow {
                pad: ctx.scratchpad_id("pad"),
            })
        })
        .with_scratchpad(ScratchpadConfig::new("pad", 32, 4)),
    );
    let mut soc = elaborate(cfg, &Platform::sim()).unwrap();
    let args = [("n".to_owned(), 1)].into_iter().collect();
    let token = soc.send_command(0, 0, &args).unwrap();
    let _ = soc.run_until_response(token, 10_000);
}
