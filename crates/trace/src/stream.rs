//! Chunked streaming export: incremental framing for line-oriented
//! waveform/trace text.
//!
//! The simulation service sends a job's waveform dump as a sequence of
//! [`ChunkFrame`]s rather than one finished document. Each frame carries a
//! bounded run of complete text lines plus enough framing metadata
//! (sequence number, line count, checksum, end-of-stream flag) for the
//! receiver to detect loss, reordering, corruption and truncation without
//! trusting the transport. The service frames the dump after the run ends;
//! streaming frames while the run is still going is ROADMAP.md item 7.
//! A budget-truncated job simply finishes its stream early: every frame
//! already delivered remains valid, and the `last` frame marks the clean
//! (if short) end — there is no torn final chunk, because a line enters a
//! frame only once it is complete.
//!
//! The framing is deliberately transport- and content-agnostic: payloads
//! are opaque text lines (waveform CSV, VCD, report rows), and frames
//! serialize however the caller wants (the server uses JSON). That keeps
//! this crate free of any dependency on the content producers above it.
//!
//! ```
//! use parsim_trace::stream::{reassemble, ChunkWriter};
//!
//! let mut frames = Vec::new();
//! let mut w = ChunkWriter::new(64, |f| frames.push(f));
//! for i in 0..100 {
//!     w.push_line(&format!("g{i},0,1"));
//! }
//! w.finish();
//! assert!(frames.len() > 1, "64-byte chunks force multiple frames");
//! assert!(frames.last().unwrap().last);
//! let text = reassemble(&frames).unwrap();
//! assert_eq!(text.lines().count(), 100);
//! ```

use std::fmt;

/// Default chunk payload target in bytes. Small enough that a slow
/// consumer sees progress early; large enough that framing overhead is
/// negligible.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;

/// One frame of a chunked stream: a run of complete text lines plus the
/// framing metadata the receiver validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Position in the stream, starting at 0, gapless.
    pub seq: u64,
    /// Number of complete lines in `payload`.
    pub records: u64,
    /// FNV-1a hash of `payload`'s bytes.
    pub checksum: u64,
    /// True exactly on the stream's final frame.
    pub last: bool,
    /// The lines themselves, each terminated by `\n` (empty only on a
    /// `last` frame closing an empty tail).
    pub payload: String,
}

/// FNV-1a over `bytes`: the frame checksum. Not cryptographic — it guards
/// against transport truncation and corruption, not an adversary.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental producer side: feed complete lines, frames come out of the
/// sink whenever the payload target is reached, and [`ChunkWriter::finish`]
/// always emits a terminal `last` frame (possibly empty) so the receiver
/// can distinguish a finished stream from a severed one.
pub struct ChunkWriter<F: FnMut(ChunkFrame)> {
    max_bytes: usize,
    seq: u64,
    records: u64,
    buf: String,
    /// The longest line pushed so far, newline included.
    widest: usize,
    sink: F,
    finished: bool,
}

impl<F: FnMut(ChunkFrame)> fmt::Debug for ChunkWriter<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkWriter")
            .field("max_bytes", &self.max_bytes)
            .field("seq", &self.seq)
            .field("buffered_records", &self.records)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(ChunkFrame)> ChunkWriter<F> {
    /// A writer that emits a frame into `sink` whenever the buffered
    /// payload reaches `max_bytes` (and a final one on `finish`).
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn new(max_bytes: usize, sink: F) -> Self {
        assert!(max_bytes >= 1, "chunk payload target must be at least one byte");
        ChunkWriter {
            max_bytes,
            seq: 0,
            records: 0,
            buf: String::new(),
            widest: 0,
            sink,
            finished: false,
        }
    }

    /// Appends one complete line (the `\n` terminator is added here;
    /// `line` must not contain one — frames carry whole lines only,
    /// which is what makes an early stream end clean rather than torn).
    ///
    /// # Panics
    ///
    /// Panics if `line` contains a newline or the writer is finished.
    pub fn push_line(&mut self, line: &str) {
        assert!(!self.finished, "push_line after finish");
        assert!(!line.contains('\n'), "chunk lines must be newline-free");
        self.buf.push_str(line);
        self.buf.push('\n');
        self.widest = self.widest.max(line.len() + 1);
        self.records += 1;
        if self.buf.len() >= self.max_bytes {
            self.emit(false);
        }
    }

    /// Flushes whatever is buffered as a non-final frame, even below the
    /// payload target. Nothing in the service calls it yet: frames are
    /// built after the run, and emitting them at round boundaries is
    /// ROADMAP.md item 7.
    pub fn flush(&mut self) {
        assert!(!self.finished, "flush after finish");
        if self.records > 0 {
            self.emit(false);
        }
    }

    /// Ends the stream: emits the terminal `last` frame (always, even with
    /// nothing buffered) and consumes the writer.
    pub fn finish(mut self) {
        self.finished = true;
        self.emit(true);
    }

    fn emit(&mut self, last: bool) {
        // The next frame starts with the length this one reached plus the
        // widest line seen, which a frame cut at the payload target cannot
        // outgrow: it is emitted at the first line end at or past it.
        let next =
            if last { String::new() } else { String::with_capacity(self.buf.len() + self.widest) };
        let payload = std::mem::replace(&mut self.buf, next);
        let frame = ChunkFrame {
            seq: self.seq,
            records: self.records,
            checksum: fnv1a(payload.as_bytes()),
            last,
            payload,
        };
        self.seq += 1;
        self.records = 0;
        (self.sink)(frame);
    }
}

/// Why a frame sequence failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A frame's `seq` broke the gapless 0,1,2,… order.
    SequenceGap {
        /// The sequence number expected at this position.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A frame's payload hashed differently than its `checksum` claims.
    ChecksumMismatch {
        /// The offending frame's sequence number.
        seq: u64,
    },
    /// A frame's `records` does not match its payload's line count, or
    /// its payload ends mid-line.
    RecordCountMismatch {
        /// The offending frame's sequence number.
        seq: u64,
    },
    /// A non-final frame was flagged `last`, or the final frame was not.
    MisplacedLast {
        /// The offending frame's sequence number.
        seq: u64,
    },
    /// The sequence is empty or its final frame is not flagged `last`:
    /// the stream was severed mid-flight.
    Unterminated,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::SequenceGap { expected, found } => {
                write!(f, "chunk sequence gap: expected {expected}, found {found}")
            }
            StreamError::ChecksumMismatch { seq } => {
                write!(f, "chunk {seq}: payload checksum mismatch")
            }
            StreamError::RecordCountMismatch { seq } => {
                write!(f, "chunk {seq}: record count does not match payload lines")
            }
            StreamError::MisplacedLast { seq } => {
                write!(f, "chunk {seq}: misplaced end-of-stream flag")
            }
            StreamError::Unterminated => write!(f, "chunk stream ended without a last frame"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Receiver side: validates a complete frame sequence (gapless from 0,
/// checksums, whole lines and their counts, exactly one trailing `last`)
/// and returns the concatenated text.
pub fn reassemble(frames: &[ChunkFrame]) -> Result<String, StreamError> {
    match frames.last() {
        None => return Err(StreamError::Unterminated),
        Some(f) if !f.last => return Err(StreamError::Unterminated),
        Some(_) => {}
    }
    let mut text = String::with_capacity(frames.iter().map(|f| f.payload.len()).sum());
    for (i, frame) in frames.iter().enumerate() {
        let expected = i as u64;
        if frame.seq != expected {
            return Err(StreamError::SequenceGap { expected, found: frame.seq });
        }
        if frame.last != (i == frames.len() - 1) {
            return Err(StreamError::MisplacedLast { seq: frame.seq });
        }
        if fnv1a(frame.payload.as_bytes()) != frame.checksum {
            return Err(StreamError::ChecksumMismatch { seq: frame.seq });
        }
        // Whole lines only: a non-empty payload ends its last line, and
        // `records` counts exactly the line ends.
        let complete = frame.payload.is_empty() || frame.payload.ends_with('\n');
        let lines = frame.payload.bytes().filter(|&b| b == b'\n').count() as u64;
        if !complete || lines != frame.records {
            return Err(StreamError::RecordCountMismatch { seq: frame.seq });
        }
        text.push_str(&frame.payload);
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(max_bytes: usize, lines: &[&str]) -> Vec<ChunkFrame> {
        let mut frames = Vec::new();
        let mut w = ChunkWriter::new(max_bytes, |f| frames.push(f));
        for l in lines {
            w.push_line(l);
        }
        w.finish();
        frames
    }

    #[test]
    fn round_trips_across_many_small_chunks() {
        let lines: Vec<String> = (0..500).map(|i| format!("net{i},{i},1")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let frames = collect(32, &refs);
        assert!(frames.len() > 10, "32-byte target must fragment 500 lines");
        assert!(frames.iter().rev().skip(1).all(|f| !f.last));
        let text = reassemble(&frames).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), refs);
    }

    #[test]
    fn empty_stream_still_terminates_cleanly() {
        let frames = collect(1024, &[]);
        assert_eq!(frames.len(), 1, "finish always emits the last frame");
        assert!(frames[0].last);
        assert_eq!(frames[0].records, 0);
        assert_eq!(reassemble(&frames).unwrap(), "");
    }

    #[test]
    fn severed_stream_is_detected() {
        let mut frames = collect(16, &["aaaa", "bbbb", "cccc", "dddd"]);
        frames.pop();
        assert_eq!(reassemble(&frames), Err(StreamError::Unterminated));
        assert_eq!(reassemble(&[]), Err(StreamError::Unterminated));
    }

    #[test]
    fn reordered_and_corrupt_frames_are_detected() {
        let frames = collect(4, &["one", "two", "three"]);
        assert!(frames.len() >= 3);

        let mut swapped = frames.clone();
        swapped.swap(0, 1);
        assert!(matches!(reassemble(&swapped), Err(StreamError::SequenceGap { .. })));

        let mut corrupt = frames.clone();
        corrupt[1].payload = "tampered\n".into();
        assert_eq!(reassemble(&corrupt), Err(StreamError::ChecksumMismatch { seq: 1 }));

        let mut missing = frames.clone();
        missing.remove(1);
        assert!(matches!(reassemble(&missing), Err(StreamError::SequenceGap { .. })));

        let mut early_last = frames;
        early_last[0].last = true;
        assert_eq!(reassemble(&early_last), Err(StreamError::MisplacedLast { seq: 0 }));
    }

    #[test]
    fn a_frame_that_ends_mid_line_is_refused() {
        // Each frame's checksum is valid and claims one record, yet the
        // first ends mid-line: concatenated, two claimed records would
        // arrive as one torn line.
        let frame = |seq, payload: &str, last| ChunkFrame {
            seq,
            records: 1,
            checksum: fnv1a(payload.as_bytes()),
            last,
            payload: payload.to_owned(),
        };
        let torn = [frame(0, "a", false), frame(1, "b\n", true)];
        assert_eq!(reassemble(&torn), Err(StreamError::RecordCountMismatch { seq: 0 }));
        // Counting line ends, not `lines()`: a blank line is a record.
        let blank = [frame(0, "\n", true)];
        assert_eq!(reassemble(&blank), Ok("\n".to_owned()));
    }

    #[test]
    fn flush_emits_partial_frames_on_demand() {
        let frames = std::cell::RefCell::new(Vec::new());
        let mut w = ChunkWriter::new(1 << 20, |f| frames.borrow_mut().push(f));
        w.push_line("a");
        w.flush();
        assert_eq!(frames.borrow().len(), 1, "flush forces the buffered line out");
        w.flush();
        assert_eq!(frames.borrow().len(), 1, "an empty flush emits nothing");
        w.push_line("b");
        w.finish();
        let text = reassemble(&frames.borrow()).unwrap();
        assert_eq!(text, "a\nb\n");
    }

    #[test]
    #[should_panic(expected = "newline-free")]
    fn rejects_embedded_newlines() {
        let mut w = ChunkWriter::new(64, |_| {});
        w.push_line("torn\nline");
    }
}
