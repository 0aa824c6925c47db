// Known-bad fixture for `lock-hygiene`: a poison-propagating unwrap and a
// guard held across socket I/O. Analyzed under a virtual `/src/` path.

use std::io::Write;
use std::sync::Mutex;

pub fn poison_panics(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

pub fn io_under_guard(m: &Mutex<Vec<u8>>, sock: &mut std::net::TcpStream) {
    let guard = m.lock();
    sock.write_all(b"frame").ok();
    drop(guard);
}
