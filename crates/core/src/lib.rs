//! # aetr — energy-proportional AER time-to-information extraction
//!
//! A full reproduction of *"An Ultra-Low Power Address-Event Sensor
//! Interface for Energy-Proportional Time-to-Information Extraction"*
//! (Di Mauro, Conti, Benini — DAC 2017) as a simulated system.
//!
//! The interface couples an asynchronous AER spiking sensor to an
//! ordinary synchronous microcontroller by tagging every event with an
//! explicit inter-event timestamp (the **AETR** format,
//! [`aetr_format`]) measured by a sampling clock that is recursively
//! divided between events and stopped entirely during silence — power
//! scales from milliwatts under a 550 kevt/s event storm down to the
//! 50 µW static floor with no input, while timestamp accuracy stays
//! above 97 % in the active region.
//!
//! ## Layers
//!
//! * [`quantizer`] — the fast behavioral model (the paper's Matlab
//!   equivalent): spike train in, AETR events + clock activity out.
//! * [`interface`] — the full discrete-event simulation of the Fig. 3
//!   architecture: [`front_end`], [`fifo`], [`crossbar`], [`i2s`],
//!   [`config_bus`]/[`spi`], driven by the pausable clock generator.
//! * [`mcu`] — the downstream consumer: I2S decode, timeline
//!   reconstruction, end-to-end fidelity reporting.
//! * [`resources`] — the static utilization model of the IGLOO nano
//!   prototype.
//!
//! # Examples
//!
//! Quantize a Poisson spike stream and inspect accuracy and power:
//!
//! ```
//! use aetr::quantizer::{isi_error_samples, quantize_train};
//! use aetr_aer::generator::{PoissonGenerator, SpikeSource};
//! use aetr_clockgen::config::ClockGenConfig;
//! use aetr_power::model::PowerModel;
//! use aetr_sim::time::SimTime;
//!
//! let train = PoissonGenerator::new(100_000.0, 64, 42).generate(SimTime::from_ms(20));
//! let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(20));
//!
//! let errors = isi_error_samples(&out);
//! let mean: f64 = errors.iter().map(|e| e.relative_error()).sum::<f64>()
//!     / errors.len() as f64;
//! assert!(mean < 0.03, "active-region error stays under the 3% bound");
//!
//! let power = PowerModel::igloo_nano().evaluate(&out.activity);
//! assert!(power.total.as_milliwatts() < 4.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aetr_format;
pub mod campaign;
pub mod cdc_fifo;
pub mod config_bus;
pub mod crossbar;
pub mod fifo;
pub mod front_end;
pub mod i2s;
pub mod interface;
pub mod latency;
pub mod mcu;
pub mod quantizer;
pub mod resources;
pub mod spi;

pub use aetr_format::{AetrEvent, Timestamp};
pub use fifo::{AetrFifo, FifoConfig};
pub use interface::{AerToI2sInterface, InterfaceConfig, InterfaceReport};
pub use mcu::{FidelityReport, McuReceiver};
pub use quantizer::{quantize_train, QuantizerOutput};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use aetr_aer::address::Address;

    use crate::aetr_format::{decode_stream, encode_stream, AetrEvent, Timestamp};
    use crate::config_bus::{Register, RegisterFile};
    use crate::fifo::{AetrFifo, FifoConfig, OverflowPolicy, PushOutcome};
    use crate::spi::{run_frame, write_frame, SpiResponse, SpiSlave};

    fn any_event() -> impl Strategy<Value = AetrEvent> {
        (0u16..1024, 0u64..(1 << 22)).prop_map(|(a, t)| {
            AetrEvent::new(Address::new(a).expect("in range"), Timestamp::from_ticks(t))
        })
    }

    proptest! {
        /// Every 32-bit word decodes and re-encodes to itself: the
        /// AETR format is a total bijection on u32.
        #[test]
        fn aetr_word_bijection(word in any::<u32>()) {
            prop_assert_eq!(AetrEvent::from_word(word).to_word(), word);
        }

        /// Stream encode/decode round-trips arbitrary event sequences.
        #[test]
        fn aetr_stream_roundtrip(events in proptest::collection::vec(any_event(), 0..200)) {
            let bytes = encode_stream(&events);
            prop_assert_eq!(decode_stream(&bytes).expect("aligned"), events);
        }

        /// The FIFO behaves exactly like a bounded VecDeque reference
        /// model under arbitrary push/pop interleavings (DropNewest).
        #[test]
        fn fifo_matches_reference_model(
            ops in proptest::collection::vec(proptest::bool::ANY, 0..400),
            capacity_words in 1usize..32,
        ) {
            let config = FifoConfig {
                capacity_bytes: capacity_words * 4,
                watermark: capacity_words,
                overflow: OverflowPolicy::DropNewest,
            };
            let mut fifo = AetrFifo::new(config);
            let mut reference: std::collections::VecDeque<AetrEvent> =
                std::collections::VecDeque::new();
            let mut counter = 0u64;
            for push in ops {
                if push {
                    let ev = AetrEvent::new(
                        Address::from_raw_masked(counter as u16),
                        Timestamp::from_ticks(counter),
                    );
                    counter += 1;
                    let outcome = fifo.push(ev);
                    if reference.len() < capacity_words {
                        reference.push_back(ev);
                        prop_assert_eq!(outcome, PushOutcome::Stored);
                    } else {
                        prop_assert_eq!(outcome, PushOutcome::DroppedNewest);
                    }
                } else {
                    prop_assert_eq!(fifo.pop(), reference.pop_front());
                }
                prop_assert_eq!(fifo.len(), reference.len());
            }
        }

        /// SPI write frames for any valid (register, value) pair either
        /// apply exactly or are rejected with the register untouched.
        #[test]
        fn spi_writes_apply_or_reject_atomically(addr in 0u8..16, value in any::<u32>()) {
            let mut regs = RegisterFile::new();
            let mut spi = SpiSlave::new();
            let snapshot = regs.clone();
            let (resp, _) = run_frame(&mut spi, &mut regs, &write_frame(addr, value));
            match resp.expect("full frame always responds") {
                SpiResponse::WriteOk { register, value: v } => {
                    prop_assert_eq!(v, value);
                    prop_assert_eq!(regs.read(register), expected_stored(register, value));
                }
                SpiResponse::Rejected(_) => {
                    prop_assert_eq!(regs, snapshot, "rejected write must not change state");
                }
                SpiResponse::ReadOk { .. } => prop_assert!(false, "write frame produced a read"),
            }
        }

        /// Under arbitrary interleavings of pushes, pops and injected
        /// Gray-pointer upsets, the CDC FIFO's synchronised occupancy
        /// views stay within `[0, depth]`, physical occupancy never
        /// exceeds depth, and pops yield exactly the pushed sequence
        /// in order — never a fabricated or reordered item.
        #[test]
        fn cdc_fifo_contains_gray_pointer_upsets(
            ops in proptest::collection::vec((0u8..4, 0u32..32), 0..300),
            depth_log2 in 1u32..5,
        ) {
            use crate::cdc_fifo::{CdcFifo, CdcFifoConfig};
            use aetr_sim::time::{SimDuration, SimTime};

            let depth = 1usize << depth_log2;
            let config = CdcFifoConfig {
                depth,
                write_period: SimDuration::from_ns(66),
                read_period: SimDuration::from_ns(33),
            };
            let mut fifo: CdcFifo<u64> = CdcFifo::new(config).expect("valid config");
            let mut pushed = Vec::new();
            let mut popped = Vec::new();
            let mut next = 0u64;
            let mut t = SimTime::ZERO;
            for (op, bit) in ops {
                t += SimDuration::from_ns(40);
                match op {
                    0 => {
                        if fifo.push(t, next).is_ok() {
                            pushed.push(next);
                        }
                        next += 1;
                    }
                    1 => {
                        if let Some(v) = fifo.pop(t) {
                            popped.push(v);
                        }
                    }
                    2 => fifo.upset_write_pointer(bit),
                    _ => fifo.upset_read_pointer(bit),
                }
                prop_assert!(fifo.occupancy_seen_by_writer(t) <= depth as u64);
                prop_assert!(fifo.occupancy_seen_by_reader(t) <= depth as u64);
                prop_assert!(fifo.true_occupancy() <= depth);
            }
            prop_assert_eq!(&popped[..], &pushed[..popped.len()]);
        }
    }

    /// CTRL masks to one bit; every other writable register stores
    /// verbatim.
    fn expected_stored(register: Register, value: u32) -> u32 {
        match register {
            Register::Ctrl => value & 1,
            _ => value,
        }
    }
}
