//! # tmir — a transactional mini object language
//!
//! TMIR stands in for Java in this reproduction of *"Enforcing Isolation
//! and Ordering in STM"* (PLDI 2007): a small statically typed imperative
//! language with classes, statics, arrays, threads, monitors, and `atomic`
//! blocks, whose every heap access the runtime mediates. The compiler
//! pipeline mirrors the paper's JIT: parse → type-check → annotate each
//! access site with a barrier decision → compile to bytecode → optimize
//! (final-field elision, intraprocedural escape analysis, barrier
//! aggregation; [`bytecode::optimize`]) → run on the [`vm::BytecodeVm`].
//! Whole-program analyses (NAIT, thread-locality) live in the companion
//! crate `tmir-analysis`; their results rewrite the same barrier opcodes by
//! site id. The tree-walking [`interp`] runs a [`sites::BarrierTable`]
//! directly and stays unoptimized, as the differential reference.
//!
//! ```
//! use tmir::interp::{run_source, VmConfig};
//!
//! let result = run_source(
//!     "static counter: int;
//!      fn worker(n: int) -> int {
//!          let i: int = 0;
//!          while (i < n) { atomic { counter = counter + 1; } i = i + 1; }
//!          return 0;
//!      }
//!      fn main() {
//!          let t: thread = spawn worker(100);
//!          let r: int = join t;
//!          print counter + r;
//!      }",
//!     VmConfig::default(),
//! ).unwrap();
//! assert_eq!(result.output, vec![100]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod interp;
pub mod lex;
pub mod parse;
pub mod pretty;
pub mod sites;
pub mod types;
pub mod vm;

pub use ast::{Program, SiteId};
pub use bytecode::{CompiledProgram, PassOptions, PassReport};
pub use compile::compile;
pub use interp::{run_source, Vm, VmConfig, VmResult};
pub use sites::{Access, BarrierKind, BarrierTable, SiteInfo};
pub use types::{check, Checked};
pub use vm::{BcVmConfig, BytecodeVm};
