//! Writing an accelerator: the README's walkthrough as a program.
//!
//! A core that adds one to every 32-bit word of a vector, written against
//! the port-handle API: the core resolves its channel names once, when
//! elaboration builds it, and each cycle indexes its ports with the
//! handles. The README quotes this file; a root test keeps the two equal.
//!
//! ```text
//! cargo run --release --example writing_an_accelerator
//! ```

use beethoven::core::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};
use beethoven::platform::Platform;
use beethoven::runtime::FpgaHandle;
use beethoven::sim::SimCtx;

struct MyCore {
    vec_in: ReaderId,
    vec_out: WriterId,
    remaining: u32,
    active: bool,
}

impl MyCore {
    // Runs at elaboration, like a Chisel core's `getReaderModule` calls.
    fn new(ctx: &CoreContext) -> Self {
        Self {
            vec_in: ctx.reader_id("vec_in"),
            vec_out: ctx.writer_id("vec_out"),
            remaining: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for MyCore {
    fn tick(&mut self, sim: &SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                let n = cmd.arg("n_eles") as u32;
                let (addr, bytes) = (cmd.arg("vec_addr"), u64::from(n) * 4);
                ctx.readers[self.vec_in].request(addr, bytes).unwrap();
                ctx.writers[self.vec_out].request(addr, bytes).unwrap();
                self.remaining = n;
                self.active = true;
            }
            return;
        }
        // The port families are separate fields: borrow both at once.
        let vec_in = &mut ctx.readers[self.vec_in];
        let vec_out = &mut ctx.writers[self.vec_out];
        while self.remaining > 0 && vec_out.can_push() {
            let Some(v) = vec_in.pop_u32() else { break };
            vec_out.push_u32(v + 1);
            self.remaining -= 1;
        }
        if self.remaining == 0 && vec_out.done() && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

fn my_command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "my_accel",
        vec![
            ("vec_addr".to_owned(), FieldType::Address),
            ("n_eles".to_owned(), FieldType::U(20)),
        ],
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = AcceleratorConfig::new().with_system(
        SystemConfig::new("MySystem", 4, my_command_spec(), |ctx| {
            Box::new(MyCore::new(ctx))
        })
        .with_read(ReadChannelConfig::new("vec_in", 4))
        .with_write(WriteChannelConfig::new("vec_out", 4)),
    );
    let soc = beethoven::core::elaborate(config, &Platform::aws_f1())?;
    let handle = FpgaHandle::new(soc);

    let n = 512u32;
    let input: Vec<u32> = (0..n).map(|i| i * 3).collect();
    let mem = handle.malloc(u64::from(n) * 4)?;
    handle.write_u32_slice(mem, &input);
    handle.copy_to_fpga(mem);
    let args = [
        ("vec_addr".to_owned(), mem.device_addr()),
        ("n_eles".to_owned(), u64::from(n)),
    ];
    handle
        .call("MySystem", 0, args.into_iter().collect())?
        .get()?;
    handle.copy_from_fpga(mem);
    let out = handle.read_u32_slice(mem, n as usize);
    assert!(out.iter().zip(&input).all(|(o, i)| *o == i + 1));
    println!(
        "MySystem added one to {n} words in {} fabric cycles",
        handle.now()
    );
    Ok(())
}
