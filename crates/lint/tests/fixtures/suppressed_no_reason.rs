// Fixture: a reasonless allow directive. The directive must NOT suppress
// the violation, and must itself be reported.

pub struct Channel;

impl Channel {
    pub fn send(&self, _frame: u32) -> Result<(), ()> {
        Err(())
    }
}

pub fn undocumented(ch: &Channel) {
    // adlp-lint: allow(discarded-fallible)
    let _ = ch.send(1);
}
