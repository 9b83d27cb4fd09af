//! Property test of the frame decoder: however the bytes of a connection are
//! cut into reads, lending the buffered frames a group at a time
//! (`FrameDecoder::frames` + `consume`) yields what taking them one by one
//! (`next_frame_ref`) yields — the same payloads in the same order, the same
//! refusal of a hostile length prefix wherever it stands, and nothing of a
//! frame whose last bytes have not arrived.

use doppel_service::wire::{write_frame, FrameDecoder, MAX_FRAME};
use proptest::prelude::*;

/// What a decoder gave up after one `feed`: the payloads, and whether it then
/// hit a hostile prefix.
type Drained = (Vec<Vec<u8>>, bool);

fn drain_one_by_one(decoder: &mut FrameDecoder) -> Drained {
    let mut payloads = Vec::new();
    loop {
        match decoder.next_frame_ref() {
            Ok(Some(payload)) => payloads.push(payload.to_vec()),
            Ok(None) => return (payloads, false),
            Err(_) => return (payloads, true),
        }
    }
}

/// Groups of at most `group` frames, each held borrowed — all of a group
/// at once — until it is consumed.
fn drain_in_groups(decoder: &mut FrameDecoder, group: usize) -> Drained {
    let mut payloads = Vec::new();
    loop {
        let lent: Vec<std::io::Result<&[u8]>> = decoder.frames().take(group).collect();
        let whole = lent.iter().take_while(|frame| frame.is_ok()).count();
        payloads.extend(lent[..whole].iter().map(|frame| frame.as_ref().unwrap().to_vec()));
        let hostile = whole < lent.len();
        decoder.consume(whole);
        if hostile || whole == 0 {
            return (payloads, hostile);
        }
    }
}

proptest! {
    #[test]
    fn lending_frames_in_groups_equals_taking_them_one_by_one(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..24),
        // Where a hostile prefix stands among the frames (past the end: nowhere).
        hostile_at in 0usize..32,
        // Bytes missing from the end of the stream: a partial trailing frame.
        missing in 0usize..12,
        cuts in prop::collection::vec(1usize..64, 1..40),
        group in 1usize..9,
    ) {
        // `ends`: where each frame ahead of the hostile prefix ends.
        let (mut stream, mut ends) = (Vec::new(), Vec::new());
        for (i, payload) in payloads.iter().enumerate() {
            if i == hostile_at {
                stream.extend_from_slice(&(MAX_FRAME + 1 + i as u32).to_le_bytes());
            }
            write_frame(&mut stream, payload).unwrap();
            if i < hostile_at {
                ends.push(stream.len());
            }
        }
        stream.truncate(stream.len().saturating_sub(missing));

        let (mut one_by_one, mut in_groups) = (FrameDecoder::new(), FrameDecoder::new());
        let (mut rest, mut seen) = (&stream[..], Vec::new());
        for cut in cuts.iter().cycle() {
            let (chunk, after) = rest.split_at((*cut).min(rest.len()));
            rest = after;
            one_by_one.feed(chunk);
            in_groups.feed(chunk);
            let expected = drain_one_by_one(&mut one_by_one);
            prop_assert_eq!(&drain_in_groups(&mut in_groups, group), &expected);
            prop_assert_eq!(in_groups.pending(), one_by_one.pending());
            seen.extend(expected.0);
            if expected.1 || rest.is_empty() {
                break;
            }
        }
        // Which is: the frames that arrived whole ahead of the hostile prefix.
        let whole = ends.iter().filter(|end| **end <= stream.len()).count();
        prop_assert_eq!(&seen[..], &payloads[..whole]);
    }
}
