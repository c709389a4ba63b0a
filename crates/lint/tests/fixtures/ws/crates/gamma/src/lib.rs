#![forbid(unsafe_code)]
//! Fixture concurrency crate for C1 ("one lock at a time"): nesting in
//! either order, re-entry, an RwLock under a Mutex, and two temporaries in
//! one statement all fire; a released temporary, an explicit `drop`, and
//! io `read`/`write` calls with arguments stay silent; a stated order is
//! suppressed by its pragma. C1 is token-level and per function body:
//! nesting through a call (`read_then_a`) is out of scope.

use std::io::{Read, Write};
use std::sync::{Mutex, RwLock};

pub mod tally;

pub struct State {
    a: Mutex<u32>,
    b: Mutex<u32>,
    r: RwLock<u32>,
}

impl State {
    pub fn ab(&self) {
        let _g = self.a.lock();
        let _h = self.b.lock(); //~ ERROR C1
    }

    pub fn ba(&self) {
        let _g = self.b.lock();
        let _h = self.a.lock(); //~ ERROR C1
    }

    pub fn reenter(&self) {
        let _g = self.a.lock();
        let _h = self.a.lock(); //~ ERROR C1
    }

    pub fn read_then_a(&self) {
        let _g = self.r.read();
        self.take_a();
    }

    fn take_a(&self) {
        let _g = self.a.lock();
    }

    pub fn a_then_write(&self) {
        let _g = self.a.lock();
        let _h = self.r.write(); //~ ERROR C1
    }

    pub fn statement_scoped(&self) {
        *self.b.lock() += 1;
        let _g = self.a.lock(); // the `b` guard died at its `;`
    }

    pub fn dropped(&self) {
        let g = self.b.lock();
        drop(g);
        let _h = self.a.lock(); // `g` was released by the explicit drop
    }

    pub fn copy(&self, src: &mut dyn Read, dst: &mut dyn Write) -> std::io::Result<()> {
        let _g = self.a.lock();
        let mut buf = [0u8; 64];
        let n = src.read(&mut buf)?; // io calls take arguments: not locks
        dst.write(&buf[..n])?;
        Ok(())
    }
}

pub struct Ordered {
    first: Mutex<u32>,
    second: Mutex<u32>,
}

impl Ordered {
    pub fn in_order(&self) {
        let _g = self.first.lock();
        let _h = self.second.lock(); // vmp-lint: allow(C1): first before second
    }
}

impl std::fmt::Debug for Ordered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ordered")
            .field("first", &*self.first.lock())
            .field("second", &*self.second.lock()) //~ ERROR C1
            .finish()
    }
}
