//! The synthetic Google+ event stream is pinned by hash: any change to
//! the generator's scheduling (wake queue, delayed reciprocations) that
//! reorders, drops or adds a single event changes these values.

use san_graph::SanEvent;
use san_sim::GooglePlus;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

/// FNV-1a of every event `GooglePlus::at_scale(scale)` streams for `seed`,
/// each prefixed by the day its batch was handed out on.
fn event_stream_hash(scale: u32, seed: u64) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut n = 0usize;
    GooglePlus::at_scale(scale).generate_streaming(seed, |day, events| {
        h.u32(day);
        h.u32(events.len() as u32);
        for e in events {
            n += 1;
            match *e {
                SanEvent::SocialNode { day } => {
                    h.bytes(&[0]);
                    h.u32(day);
                }
                SanEvent::AttrNode { day, ty } => {
                    h.bytes(&[1, ty as u8]);
                    h.u32(day);
                }
                SanEvent::SocialLink { day, src, dst } => {
                    h.bytes(&[2]);
                    h.u32(day);
                    h.u32(src.0);
                    h.u32(dst.0);
                }
                SanEvent::AttrLink { day, user, attr } => {
                    h.bytes(&[3]);
                    h.u32(day);
                    h.u32(user.0);
                    h.u32(attr.0);
                }
            }
        }
    });
    (h.0, n)
}

#[test]
fn scale_20_event_stream_is_pinned() {
    let pinned = [
        (1u64, 0xdb63_3639_094e_b9da_u64, 25_200usize),
        (2, 0xa6fe_9f1f_8fe7_bfb3, 24_482),
        (42, 0x368e_cd0c_48fc_cfad, 24_691),
    ];
    for (seed, hash, events) in pinned {
        let (got_hash, got_events) = event_stream_hash(20, seed);
        assert_eq!(got_events, events, "seed {seed}: event count");
        assert_eq!(
            got_hash, hash,
            "seed {seed}: event stream hash {got_hash:#018x}"
        );
    }
}
