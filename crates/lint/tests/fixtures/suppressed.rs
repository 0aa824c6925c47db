// Fixture: a violation waived by a well-formed allow directive (rule id +
// mandatory reason). The waived match must count as suppressed, not as a
// violation.

pub struct Channel;

impl Channel {
    pub fn send(&self, _frame: u32) -> Result<(), ()> {
        Err(())
    }
}

pub fn documented(ch: &Channel) {
    // adlp-lint: allow(discarded-fallible) — fixture: the peer is known gone
    let _ = ch.send(1);
}
