//! Length-prefixed, checksummed, epoch-stamped frame protocol.
//!
//! Every message on an `fda_net` connection is one frame:
//!
//! ```text
//! [ len: u32 ] [ epoch: u32 ] [ crc: u32 ] [ kind: u8 ] [ payload: (len − 1) bytes ]
//! ```
//!
//! `len` counts the kind byte plus the payload (little endian, like all of
//! `fda_core::wire`), so a reader always knows exactly how many bytes to
//! pull off the socket before touching a decoder. Frame payloads are the
//! `fda_core::wire` encodings — the frame layer adds transport concerns
//! only:
//!
//! * **typing and length** — plus a size cap so a corrupt or hostile
//!   length header cannot make the receiver allocate unboundedly;
//! * **integrity** — `crc` is an FNV-1a checksum over
//!   `[epoch][kind][payload]`, so a bit-flipped frame becomes a clean
//!   per-connection protocol error instead of a silently-wrong decode (the
//!   `len` field is the only unchecksummed region, and a corrupted length
//!   desynchronizes the stream into a checksum or I/O error anyway);
//! * **membership versioning** — `epoch` is the coordinator's membership
//!   epoch (bumped on every worker drop or rejoin), so a stale deposit
//!   from a zombie connection is rejected instead of averaged (see
//!   `protocol::recv_frame_at_epoch_into` and the coordinator's failure
//!   model).

use fda_core::wire::DecodeError;
use std::io::{Read, Write};

/// Protocol version exchanged in the hello handshake. Bump on any frame
/// or payload layout change.
///
/// v2: checksummed + epoch-stamped frame headers, extended hello
/// (`last_epoch`), and the `Resume` handoff frame.
///
/// v3: the config frame carries the uplink payload codec (`JobSpec` wire
/// v2), and `State`/`Model` uplink payloads are codec-encoded — dense
/// runs stay byte-identical to v2, but a v2 peer cannot decode a
/// non-dense upload, so the version gates the pairing.
///
/// v4: the config frame carries the downlink spec (`JobSpec` wire v3)
/// and delta-mode jobs broadcast `AvgModelDelta` frames instead of
/// `AvgModel`. Dense-downlink runs stay byte-identical to v3, but a v3
/// peer cannot decode a delta downlink, so the version gates the pairing.
pub const PROTOCOL_VERSION: u16 = 4;

/// Upper bound on one frame's `len` field (kind byte + payload).
///
/// The largest legitimate frame is a full model vector; 256 MiB covers a
/// 67M-parameter model — far beyond the workspace zoo — while keeping a
/// corrupted length header from looking like a 4 GiB allocation request.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// FNV-1a 32-bit hash — the frame checksum. Dependency-free, one
/// multiply per byte, and more than strong enough to turn random
/// corruption into a detected protocol error (it is an integrity check
/// against faults, not an authenticator against adversaries).
pub fn fnv1a_32(chunks: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// Frame types of the coordinator/worker protocol, in handshake order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → coordinator: protocol version + worker id + last-seen
    /// membership epoch (0 on a fresh join).
    Hello = 1,
    /// Coordinator → worker: the job config (`wire::encode_job`).
    Config = 2,
    /// Worker → coordinator: one round's local state, codec-coded
    /// (`wire::encode_state_coded_into`).
    State = 3,
    /// Coordinator → worker: averaged state + sync decision.
    AvgState = 4,
    /// Worker → coordinator: full model parameters for a synchronization,
    /// codec-coded (`wire::encode_vector_coded_into`).
    Model = 5,
    /// Coordinator → worker: the AllReduced consensus model.
    AvgModel = 6,
    /// Worker → coordinator: final replica parameters after the last step
    /// (evaluation traffic — uncharged, like `Cluster::average_params`).
    FinalModel = 7,
    /// Coordinator → worker: run complete, close the connection.
    Shutdown = 8,
    /// Coordinator → worker: versioned state handoff on (re)join — the
    /// round to resume from, the consensus model, and (when a sync has
    /// happened) the previous consensus for monitor reconstruction.
    Resume = 9,
    /// Coordinator → worker: the downlink-codec-encoded delta between the
    /// previous consensus model and the round's AllReduce mean. Only sent
    /// when the job's `DownlinkSpec` is delta mode; rejoins still receive
    /// a dense `Resume`, so the handoff stays bitwise-exact.
    AvgModelDelta = 10,
}

impl FrameKind {
    /// Lowercase label for metrics and event records.
    pub fn label(&self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::Config => "config",
            FrameKind::State => "state",
            FrameKind::AvgState => "avg_state",
            FrameKind::Model => "model",
            FrameKind::AvgModel => "avg_model",
            FrameKind::FinalModel => "final_model",
            FrameKind::Shutdown => "shutdown",
            FrameKind::Resume => "resume",
            FrameKind::AvgModelDelta => "avg_model_delta",
        }
    }

    /// Per-kind transmit byte counter name (frame image bytes, framing
    /// included) — fed by [`write_frame`].
    fn tx_counter(&self) -> &'static str {
        match self {
            FrameKind::Hello => "net_tx_bytes_hello",
            FrameKind::Config => "net_tx_bytes_config",
            FrameKind::State => "net_tx_bytes_state",
            FrameKind::AvgState => "net_tx_bytes_avg_state",
            FrameKind::Model => "net_tx_bytes_model",
            FrameKind::AvgModel => "net_tx_bytes_avg_model",
            FrameKind::FinalModel => "net_tx_bytes_final_model",
            FrameKind::Shutdown => "net_tx_bytes_shutdown",
            FrameKind::Resume => "net_tx_bytes_resume",
            FrameKind::AvgModelDelta => "net_tx_bytes_avg_model_delta",
        }
    }

    /// Per-kind receive byte counter name — fed by [`read_frame_into`].
    fn rx_counter(&self) -> &'static str {
        match self {
            FrameKind::Hello => "net_rx_bytes_hello",
            FrameKind::Config => "net_rx_bytes_config",
            FrameKind::State => "net_rx_bytes_state",
            FrameKind::AvgState => "net_rx_bytes_avg_state",
            FrameKind::Model => "net_rx_bytes_model",
            FrameKind::AvgModel => "net_rx_bytes_avg_model",
            FrameKind::FinalModel => "net_rx_bytes_final_model",
            FrameKind::Shutdown => "net_rx_bytes_shutdown",
            FrameKind::Resume => "net_rx_bytes_resume",
            FrameKind::AvgModelDelta => "net_rx_bytes_avg_model_delta",
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Config),
            3 => Some(FrameKind::State),
            4 => Some(FrameKind::AvgState),
            5 => Some(FrameKind::Model),
            6 => Some(FrameKind::AvgModel),
            7 => Some(FrameKind::FinalModel),
            8 => Some(FrameKind::Shutdown),
            9 => Some(FrameKind::Resume),
            10 => Some(FrameKind::AvgModelDelta),
            _ => None,
        }
    }
}

/// Errors of the socket transport, split by what the retry policy and the
/// coordinator's drop accounting need to distinguish.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error that is neither a timeout nor a peer
    /// disappearance (address in use, permission, …).
    Io(std::io::Error),
    /// A read or write exceeded its liveness deadline — the peer is slow
    /// or stalled, not (yet) known dead. Retryable.
    Timeout(std::io::Error),
    /// The peer went away: EOF, connection reset, broken pipe. Retryable
    /// via the reconnect path.
    Disconnect(std::io::Error),
    /// A frame payload failed to decode.
    Decode(DecodeError),
    /// The peer violated the protocol (wrong frame kind, bad handshake,
    /// oversized frame, checksum mismatch, epoch from the future, …).
    /// Not retryable on the same connection.
    Protocol(String),
    /// The coordinator's live membership fell below the configured
    /// quorum — the typed abort of an unsurvivable run.
    Quorum {
        /// Round at which the quorum was lost.
        round: u32,
        /// Workers still alive.
        alive: usize,
        /// The configured `min_workers` floor.
        min_workers: usize,
    },
}

impl NetError {
    /// Classifies a raw I/O error into [`NetError::Timeout`],
    /// [`NetError::Disconnect`], or [`NetError::Io`].
    pub fn from_io(e: std::io::Error) -> NetError {
        use std::io::ErrorKind as K;
        match e.kind() {
            K::TimedOut | K::WouldBlock => NetError::Timeout(e),
            K::UnexpectedEof
            | K::ConnectionReset
            | K::ConnectionAborted
            | K::BrokenPipe
            | K::NotConnected => NetError::Disconnect(e),
            _ => NetError::Io(e),
        }
    }

    /// Whether a worker's rejoin policy may retry after this error
    /// (timeouts and disconnects — a protocol violation or decode failure
    /// on our own stream would just repeat).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Timeout(_) | NetError::Disconnect(_) | NetError::Io(_)
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net io error: {e}"),
            NetError::Timeout(e) => write!(f, "net timeout: {e}"),
            NetError::Disconnect(e) => write!(f, "net disconnect: {e}"),
            NetError::Decode(e) => write!(f, "net decode error: {e}"),
            NetError::Protocol(what) => write!(f, "net protocol error: {what}"),
            NetError::Quorum {
                round,
                alive,
                min_workers,
            } => write!(
                f,
                "quorum lost at round {round}: {alive} workers alive, need {min_workers}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::from_io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> NetError {
        NetError::Decode(e)
    }
}

/// A byte stream with transmit/receive byte counters — the probe that
/// turns "charged" traffic accounting into *measured* accounting. Counts
/// every byte that crosses the wrapped stream, framing included.
pub struct CountingStream<S> {
    inner: S,
    tx: u64,
    rx: u64,
}

impl<S> CountingStream<S> {
    /// Wraps a stream with zeroed counters.
    pub fn new(inner: S) -> CountingStream<S> {
        CountingStream {
            inner,
            tx: 0,
            rx: 0,
        }
    }

    /// Bytes written to the stream so far.
    pub fn tx_bytes(&self) -> u64 {
        self.tx
    }

    /// Bytes read from the stream so far.
    pub fn rx_bytes(&self) -> u64 {
        self.rx
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tx += n as u64;
        Ok(n)
    }

    // Must delegate explicitly: the `Write` default forwards only the
    // first non-empty buffer, which would silently split every vectored
    // frame write into two syscalls.
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.tx += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Composes one frame's full byte image — header, checksum, kind and
/// payload. Exposed (besides [`write_frame`]) so the fault-injection layer
/// can corrupt or truncate a *realistic* frame before it hits the socket.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`] — a sender-side bug,
/// not a peer-controlled condition.
pub fn encode_frame(epoch: u32, kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let len = payload
        .len()
        .checked_add(1)
        .filter(|&l| l <= MAX_FRAME_BYTES as usize)
        .expect("frame payload exceeds MAX_FRAME_BYTES");
    let epoch_bytes = epoch.to_le_bytes();
    let crc = fnv1a_32(&[&epoch_bytes, &[kind as u8], payload]);
    let mut buf = Vec::with_capacity(12 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&epoch_bytes);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.push(kind as u8);
    buf.extend_from_slice(payload);
    buf
}

/// Composes one frame's 13-byte head — `[len][epoch][crc][kind]` — on the
/// stack. The checksum covers the payload via the chunked FNV, so the
/// payload bytes are never copied.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`] — a sender-side bug,
/// not a peer-controlled condition.
fn frame_head(epoch: u32, kind: FrameKind, payload: &[u8]) -> [u8; 13] {
    let len = payload
        .len()
        .checked_add(1)
        .filter(|&l| l <= MAX_FRAME_BYTES as usize)
        .expect("frame payload exceeds MAX_FRAME_BYTES");
    let epoch_bytes = epoch.to_le_bytes();
    let crc = fnv1a_32(&[&epoch_bytes, &[kind as u8], payload]);
    let mut head = [0u8; 13];
    head[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..8].copy_from_slice(&epoch_bytes);
    head[8..12].copy_from_slice(&crc.to_le_bytes());
    head[12] = kind as u8;
    head
}

/// Writes one frame zero-copy: the 13-byte head lives on the stack and the
/// payload is handed to the socket as a borrowed [`IoSlice`], so the write
/// path allocates nothing and still lands in one syscall on streams with
/// real scatter-gather support. Byte-for-byte identical on the wire to
/// [`encode_frame`] (pinned by the equivalence test below).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(
    w: &mut W,
    epoch: u32,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), NetError> {
    let head = {
        let _span = fda_obs::histogram!("net_frame_encode_us").span();
        frame_head(epoch, kind, payload)
    };
    {
        let _span = fda_obs::histogram!("net_socket_write_us").span();
        // Manual gather loop: `write_vectored` has no `write_all`
        // counterpart, so advance through partial writes by hand. While
        // any head bytes remain, offer both slices; after that, finish
        // the payload with plain writes.
        let total = head.len() + payload.len();
        let mut pos = 0usize;
        while pos < total {
            let n = if pos < head.len() {
                w.write_vectored(&[
                    std::io::IoSlice::new(&head[pos..]),
                    std::io::IoSlice::new(payload),
                ])?
            } else {
                w.write(&payload[pos - head.len()..])?
            };
            if n == 0 {
                return Err(NetError::from_io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote 0 bytes mid-frame",
                )));
            }
            pos += n;
        }
        w.flush()?;
    }
    if fda_obs::enabled() {
        let reg = fda_obs::registry();
        let bytes = 13 + payload.len() as u64;
        reg.counter(kind.tx_counter()).add(bytes);
        reg.counter("net_tx_vectored_bytes").add(bytes);
    }
    Ok(())
}

/// Reads one frame into a caller-owned buffer, validating the length
/// header against [`MAX_FRAME_BYTES`] before growing the buffer and
/// verifying the checksum before handing the payload to any decoder.
///
/// On success `buf` holds the frame body — the kind byte followed by the
/// payload, i.e. the payload is `&buf[1..]` — and the frame's kind and
/// membership epoch stamp are returned. Reusing one buffer per connection
/// turns the read path's per-frame allocation into an amortized no-op
/// (the buffer only grows to the largest frame seen).
pub fn read_frame_into<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> Result<(FrameKind, u32), NetError> {
    let mut header = [0u8; 12];
    {
        let _span = fda_obs::histogram!("net_socket_read_us").span();
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("len 4"));
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(NetError::Protocol(format!(
                "frame length {len} outside (0, {MAX_FRAME_BYTES}]"
            )));
        }
        buf.clear();
        buf.resize(len as usize, 0);
        r.read_exact(buf)?;
    }
    let _span = fda_obs::histogram!("net_frame_decode_us").span();
    let epoch_bytes: [u8; 4] = header[4..8].try_into().expect("len 4");
    let epoch = u32::from_le_bytes(epoch_bytes);
    let crc = u32::from_le_bytes(header[8..12].try_into().expect("len 4"));
    let (kind_byte, payload) = buf.split_first().expect("len >= 1");
    let actual = fnv1a_32(&[&epoch_bytes, &[*kind_byte], payload]);
    if actual != crc {
        return Err(NetError::Protocol(format!(
            "frame checksum mismatch (declared {crc:#010x}, computed {actual:#010x})"
        )));
    }
    let kind = FrameKind::from_u8(*kind_byte)
        .ok_or_else(|| NetError::Protocol(format!("unknown frame kind {kind_byte}")))?;
    if fda_obs::enabled() {
        fda_obs::registry()
            .counter(kind.rx_counter())
            .add(12 + buf.len() as u64);
    }
    Ok((kind, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads the first frame of `bytes` into a fresh buffer.
    fn read_one(bytes: Vec<u8>) -> Result<(FrameKind, u32), NetError> {
        read_frame_into(&mut std::io::Cursor::new(bytes), &mut Vec::new())
    }

    #[test]
    fn frame_roundtrip_through_a_pipe() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 3, FrameKind::State, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, 7, FrameKind::Shutdown, &[]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let (k1, e1) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!((k1, e1, &buf[1..]), (FrameKind::State, 3, &[1u8, 2, 3][..]));
        let (k2, e2) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!((k2, e2, buf.len() - 1), (FrameKind::Shutdown, 7, 0));
    }

    #[test]
    fn oversized_and_zero_length_headers_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        buf.push(1);
        assert!(matches!(read_one(buf), Err(NetError::Protocol(_))));
        let mut zero = 0u32.to_le_bytes().to_vec();
        zero.extend_from_slice(&[0u8; 8]);
        assert!(matches!(read_one(zero), Err(NetError::Protocol(_))));
    }

    #[test]
    fn unknown_kind_rejected() {
        // Compose a frame with a valid checksum but an unassigned kind
        // byte: the checksum passes, the kind dispatch must still reject.
        let epoch = 5u32.to_le_bytes();
        let crc = fnv1a_32(&[&epoch, &[250u8]]);
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&epoch);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.push(250);
        assert!(matches!(read_one(buf), Err(NetError::Protocol(_))));
    }

    #[test]
    fn truncated_stream_is_disconnect() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, 1, FrameKind::Model, &[0u8; 64]).unwrap();
        buf.truncate(20);
        assert!(matches!(read_one(buf), Err(NetError::Disconnect(_))));
    }

    /// The bit-flip regression: every single-bit corruption of the frame
    /// image past the length field must surface as a clean error (checksum
    /// mismatch or unknown kind), never as a silently different decode.
    #[test]
    fn every_bit_flip_past_len_is_detected() {
        let frame = encode_frame(42, FrameKind::State, &[9, 8, 7, 6, 5]);
        for byte in 4..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                let res = read_one(corrupt);
                assert!(
                    matches!(res, Err(NetError::Protocol(_))),
                    "flip of byte {byte} bit {bit} was not detected"
                );
            }
        }
    }

    /// Length-field corruption desynchronizes the stream: it must fail
    /// (checksum, bounds, or I/O) — the property is totality, not which
    /// error.
    #[test]
    fn len_field_bit_flips_never_decode() {
        let frame = encode_frame(1, FrameKind::AvgState, &[1; 40]);
        for byte in 0..4 {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_one(corrupt).is_err(),
                    "len flip byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn io_error_classification() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::TimedOut, "t")),
            NetError::Timeout(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::WouldBlock, "t")),
            NetError::Timeout(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::ConnectionReset, "r")),
            NetError::Disconnect(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::UnexpectedEof, "e")),
            NetError::Disconnect(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::AddrInUse, "a")),
            NetError::Io(_)
        ));
        assert!(NetError::from_io(Error::new(ErrorKind::TimedOut, "t")).is_retryable());
        assert!(!NetError::Protocol("x".into()).is_retryable());
    }

    #[test]
    fn counting_stream_counts_both_directions() {
        let mut inner = std::io::Cursor::new(vec![0u8; 32]);
        let mut cs = CountingStream::new(&mut inner);
        cs.write_all(&[1, 2, 3]).unwrap();
        let mut sink = [0u8; 5];
        cs.read_exact(&mut sink).unwrap();
        assert_eq!(cs.tx_bytes(), 3);
        assert_eq!(cs.rx_bytes(), 5);
    }

    /// The zero-copy invariant: the vectored write path must emit the
    /// exact octets of [`encode_frame`] for every kind, from the empty
    /// payload up through a model-sized one ("max-size" here means the
    /// largest CI-tractable image — 1 MiB; the 256 MiB cap itself is
    /// exercised by the oversize panic tests, which would need half a
    /// gigabyte of buffers to hit byte-for-byte).
    #[test]
    fn vectored_write_matches_encode_frame_for_every_kind() {
        let kinds = [
            FrameKind::Hello,
            FrameKind::Config,
            FrameKind::State,
            FrameKind::AvgState,
            FrameKind::Model,
            FrameKind::AvgModel,
            FrameKind::FinalModel,
            FrameKind::Shutdown,
            FrameKind::Resume,
            FrameKind::AvgModelDelta,
        ];
        for kind in kinds {
            for len in [0usize, 1, 12, 13, 4096, 1 << 20] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + kind as usize) as u8).collect();
                let reference = encode_frame(9_000 + len as u32, kind, &payload);
                // `Vec<u8>`'s `write_vectored` appends every buffer.
                let mut vectored: Vec<u8> = Vec::new();
                write_frame(&mut vectored, 9_000 + len as u32, kind, &payload).unwrap();
                assert_eq!(
                    vectored, reference,
                    "vectored bytes diverge for {kind:?} len {len}"
                );
            }
        }
    }

    /// A sink that accepts one byte per call and only implements `write`
    /// (so `write_vectored` falls back to the first-buffer default):
    /// drives the gather loop through every partial-write offset, inside
    /// the head and inside the payload.
    struct Trickle(Vec<u8>);
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let payload: Vec<u8> = (0..257).map(|i| i as u8).collect();
        let mut sink = Trickle(Vec::new());
        write_frame(&mut sink, 77, FrameKind::Model, &payload).unwrap();
        assert_eq!(sink.0, encode_frame(77, FrameKind::Model, &payload));
    }

    #[test]
    #[should_panic(expected = "frame payload exceeds MAX_FRAME_BYTES")]
    fn vectored_write_rejects_oversized_payload() {
        let huge = vec![0u8; MAX_FRAME_BYTES as usize];
        let _ = write_frame(&mut Vec::new(), 0, FrameKind::Model, &huge);
    }

    #[test]
    fn read_frame_into_reuses_the_buffer() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 2, FrameKind::Model, &[5u8; 128]).unwrap();
        write_frame(&mut wire, 2, FrameKind::State, &[9u8; 16]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let (k1, e1) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!((k1, e1), (FrameKind::Model, 2));
        assert_eq!(&buf[1..], &[5u8; 128][..]);
        let cap = buf.capacity();
        let (k2, _) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!(k2, FrameKind::State);
        assert_eq!(&buf[1..], &[9u8; 16][..]);
        assert_eq!(buf.capacity(), cap, "smaller frame must not reallocate");
    }

    #[test]
    fn counting_stream_counts_vectored_writes() {
        let mut inner: Vec<u8> = Vec::new();
        let mut cs = CountingStream::new(&mut inner);
        let n = cs
            .write_vectored(&[
                std::io::IoSlice::new(&[1, 2, 3]),
                std::io::IoSlice::new(&[4, 5]),
            ])
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(cs.tx_bytes(), 5);
        assert_eq!(inner, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fnv1a_chunking_is_concatenation() {
        let whole = fnv1a_32(&[b"abcdef"]);
        let chunked = fnv1a_32(&[b"ab", b"cd", b"ef"]);
        assert_eq!(whole, chunked);
        assert_ne!(fnv1a_32(&[b"abcdef"]), fnv1a_32(&[b"abcdeg"]));
    }
}
