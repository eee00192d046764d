//! SEND-based RPC wire protocol.
//!
//! Every system in the comparison uses the same request/response framing
//! (the paper implements all five on one code base, §5.3). Messages are
//! length-prefixed byte strings with a 1-byte opcode; encoding is manual —
//! the formats are tiny and fixed, and the decoder is fuzzed by property
//! tests.

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// Key not present (or no intact version survived).
    NotFound = 1,
    /// No free bucket in the key's probe window.
    TableFull = 2,
    /// The data pool is out of space.
    NoSpace = 3,
    /// Validation failed in a way retries will not fix.
    Corrupt = 4,
    /// Transient condition (e.g. cleaning hiccup); retry.
    Busy = 5,
    /// Transaction validation failed (read-set version moved, or a
    /// conflicting transaction holds the key in-doubt): abort and retry
    /// the whole transaction from a fresh read.
    Conflict = 6,
    /// The server no longer owns the shard under the client's placement
    /// epoch (sealed for migration, or already handed off): refresh the
    /// placement map from the metadata service and retarget.
    WrongEpoch = 7,
    /// The snapshot is older than the cleaner's compaction horizon: the
    /// versions it could name may have been relocated and their commit
    /// timestamps discarded. Capture a fresh snapshot and retry.
    Expired = 8,
}

impl Status {
    /// Decode a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::TableFull,
            3 => Status::NoSpace,
            4 => Status::Corrupt,
            5 => Status::Busy,
            6 => Status::Conflict,
            7 => Status::WrongEpoch,
            8 => Status::Expired,
            _ => return None,
        })
    }
}

/// Client-facing error type for store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Transport-level failure.
    Qp(efactory_rnic::QpError),
    /// The server replied with a non-OK status.
    Status(Status),
    /// A reply failed to decode or repeatedly failed validation.
    Protocol,
}

impl From<efactory_rnic::QpError> for StoreError {
    fn from(e: efactory_rnic::QpError) -> Self {
        StoreError::Qp(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Qp(e) => write!(f, "transport: {e}"),
            StoreError::Status(s) => write!(f, "server status: {s:?}"),
            StoreError::Protocol => f.write_str("protocol violation"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Requests a client sends to a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Allocate space for a PUT (client-active scheme): the server returns
    /// the offset the client should RDMA-write the value to. Carries the
    /// CRC so the server can record it in the object metadata.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value length the client will write.
        vlen: u32,
        /// CRC32C of the value.
        crc: u32,
    },
    /// Look up a key (RPC+RDMA read path).
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Delete a key (writes a tombstone version).
    Del {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// SAW only: "the value at `obj_off` has been written; persist it and
    /// expose the metadata".
    Persist {
        /// Object offset returned by the earlier `Put` reply.
        obj_off: u64,
    },
    /// RPC baseline only: ship the whole value through the two-sided path.
    RpcPut {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Phase 1 of a cross-shard transaction: validate the read set, stage
    /// every put durably (linked into the version chains, marked PENDING),
    /// and reply with the shard's commit clock. The staged writes stay
    /// in-doubt until `TxnDecide`.
    TxnPrepare {
        /// Coordinator-chosen transaction id (unique per client QP).
        txn_id: u64,
        /// Wait-die priority, `(first-attempt start ns, coordinator id)`:
        /// smaller is older. Kept across the op's retries, so a transaction
        /// that dies ages until it is the oldest, which waits instead.
        prio: (u64, u64),
        /// Read set: `(key, observed seq)` pairs; `seq == 0` means the key
        /// was absent when read.
        reads: Vec<(Vec<u8>, u32)>,
        /// Write set: full values ride the RPC (two-sided), so staging
        /// persists them server-side in one step.
        puts: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Phase 2: commit (publish every staged version at `commit_ts`) or
    /// abort (unlink and invalidate the staged versions).
    TxnDecide {
        /// Transaction id from the matching `TxnPrepare`.
        txn_id: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
        /// Coordinator-chosen commit timestamp (ignored on abort).
        commit_ts: u64,
    },
    /// One-shot single-shard transaction: validate, stage, commit-record,
    /// and publish in one RPC. The handler runs it start-to-finish, so no
    /// other RPC ever observes the intermediate state.
    TxnCommit {
        /// Transaction id (unique per client QP).
        txn_id: u64,
        /// Read set, as in `TxnPrepare`.
        reads: Vec<(Vec<u8>, u32)>,
        /// Write set, as in `TxnPrepare`.
        puts: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Capture this shard's snapshot clock (durable-commit watermark).
    SnapCapture,
    /// MVCC read at snapshot `snap_ts`: walk the version chain to the
    /// newest committed version with `commit_ts <= snap_ts`.
    SnapGet {
        /// Key bytes.
        key: Vec<u8>,
        /// Snapshot timestamp from an earlier `SnapCapture` round.
        snap_ts: u64,
    },
}

/// Replies a server sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Reply to `Put`: where the object lives and where to write the value.
    Put {
        /// Outcome.
        status: Status,
        /// Absolute pool offset of the object (header).
        obj_off: u64,
        /// Absolute pool offset the client RDMA-writes the value to.
        value_off: u64,
    },
    /// Reply to `Get`: where to RDMA-read the object from.
    Get {
        /// Outcome.
        status: Status,
        /// Absolute pool offset of the object (header).
        obj_off: u64,
        /// Key length of the returned version.
        klen: u16,
        /// Value length of the returned version.
        vlen: u32,
    },
    /// Generic acknowledgement (`Del`, `Persist`, `RpcPut`).
    Ack {
        /// Outcome.
        status: Status,
    },
    /// Reply to `TxnPrepare` / `TxnDecide` / `TxnCommit`.
    TxnAck {
        /// Outcome (`Conflict` = validation failed, retry from fresh reads).
        status: Status,
        /// For `TxnPrepare`: the shard's commit clock (the coordinator's
        /// commit timestamp must exceed every prepare clock). For a
        /// committed `TxnCommit` / `TxnDecide`: the commit timestamp.
        commit_ts: u64,
    },
    /// Reply to `SnapCapture`: the shard's snapshot clock.
    Snap {
        /// Outcome.
        status: Status,
        /// Every transaction committed on this shard so far has
        /// `commit_ts <= watermark`, and every later commit will get a
        /// strictly larger timestamp.
        watermark: u64,
    },
}

/// Asynchronous server→client notifications (cleaning protocol, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Log cleaning begins: switch to the RPC+RDMA read scheme.
    CleanStart,
    /// Log cleaning finished: hybrid reads are safe again.
    CleanEnd,
}

const OP_PUT: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_PERSIST: u8 = 0x04;
const OP_RPC_PUT: u8 = 0x05;
const OP_TXN_PREPARE: u8 = 0x06;
const OP_TXN_DECIDE: u8 = 0x07;
const OP_TXN_COMMIT: u8 = 0x08;
const OP_SNAP_CAPTURE: u8 = 0x09;
const OP_SNAP_GET: u8 = 0x0A;
const OP_R_PUT: u8 = 0x81;
const OP_R_GET: u8 = 0x82;
const OP_R_ACK: u8 = 0x83;
const OP_R_TXN_ACK: u8 = 0x84;
const OP_R_SNAP: u8 = 0x85;
const OP_E_CLEAN_START: u8 = 0xC1;
const OP_E_CLEAN_END: u8 = 0xC2;
/// Framed envelope: `[OP_FRAME_REQ][req_id: u64 LE][legacy request bytes]`.
/// The id is monotonic per client QP; a retry of the same logical operation
/// reuses it, which is what lets the server dedup (at-most-once execution
/// over an at-least-once fabric, Birrell–Nelson style).
const OP_FRAME_REQ: u8 = 0x10;
/// Framed reply envelope: `[OP_FRAME_RESP][req_id: u64 LE][legacy reply]`.
const OP_FRAME_RESP: u8 = 0x90;

fn put_key(buf: &mut Vec<u8>, key: &[u8]) {
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(key);
}

fn put_reads(buf: &mut Vec<u8>, reads: &[(Vec<u8>, u32)]) {
    buf.extend_from_slice(&(reads.len() as u16).to_le_bytes());
    for (key, seq) in reads {
        put_key(buf, key);
        buf.extend_from_slice(&seq.to_le_bytes());
    }
}

fn put_puts(buf: &mut Vec<u8>, puts: &[(Vec<u8>, Vec<u8>)]) {
    buf.extend_from_slice(&(puts.len() as u16).to_le_bytes());
    for (key, value) in puts {
        put_key(buf, key);
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(value);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn u16(&mut self) -> Option<u16> {
        let b = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(b.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        let b = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(b.to_vec())
    }
    fn key(&mut self) -> Option<Vec<u8>> {
        let n = self.u16()? as usize;
        self.bytes(n)
    }
    fn reads(&mut self) -> Option<Vec<(Vec<u8>, u32)>> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let key = self.key()?;
            let seq = self.u32()?;
            out.push((key, seq));
        }
        Some(out)
    }
    fn puts(&mut self) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let key = self.key()?;
            let vlen = self.u32()? as usize;
            let value = self.bytes(vlen)?;
            out.push((key, value));
        }
        Some(out)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl Request {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Request::Put { key, vlen, crc } => {
                buf.push(OP_PUT);
                put_key(&mut buf, key);
                buf.extend_from_slice(&vlen.to_le_bytes());
                buf.extend_from_slice(&crc.to_le_bytes());
            }
            Request::Get { key } => {
                buf.push(OP_GET);
                put_key(&mut buf, key);
            }
            Request::Del { key } => {
                buf.push(OP_DEL);
                put_key(&mut buf, key);
            }
            Request::Persist { obj_off } => {
                buf.push(OP_PERSIST);
                buf.extend_from_slice(&obj_off.to_le_bytes());
            }
            Request::RpcPut { key, value } => {
                buf.push(OP_RPC_PUT);
                put_key(&mut buf, key);
                buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
                buf.extend_from_slice(value);
            }
            Request::TxnPrepare {
                txn_id,
                prio,
                reads,
                puts,
            } => {
                buf.push(OP_TXN_PREPARE);
                buf.extend_from_slice(&txn_id.to_le_bytes());
                buf.extend_from_slice(&prio.0.to_le_bytes());
                buf.extend_from_slice(&prio.1.to_le_bytes());
                put_reads(&mut buf, reads);
                put_puts(&mut buf, puts);
            }
            Request::TxnDecide {
                txn_id,
                commit,
                commit_ts,
            } => {
                buf.push(OP_TXN_DECIDE);
                buf.extend_from_slice(&txn_id.to_le_bytes());
                buf.push(u8::from(*commit));
                buf.extend_from_slice(&commit_ts.to_le_bytes());
            }
            Request::TxnCommit {
                txn_id,
                reads,
                puts,
            } => {
                buf.push(OP_TXN_COMMIT);
                buf.extend_from_slice(&txn_id.to_le_bytes());
                put_reads(&mut buf, reads);
                put_puts(&mut buf, puts);
            }
            Request::SnapCapture => buf.push(OP_SNAP_CAPTURE),
            Request::SnapGet { key, snap_ts } => {
                buf.push(OP_SNAP_GET);
                put_key(&mut buf, key);
                buf.extend_from_slice(&snap_ts.to_le_bytes());
            }
        }
        buf
    }

    /// Decode from wire bytes; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            OP_PUT => Request::Put {
                key: r.key()?,
                vlen: r.u32()?,
                crc: r.u32()?,
            },
            OP_GET => Request::Get { key: r.key()? },
            OP_DEL => Request::Del { key: r.key()? },
            OP_PERSIST => Request::Persist { obj_off: r.u64()? },
            OP_RPC_PUT => {
                let key = r.key()?;
                let n = r.u32()? as usize;
                Request::RpcPut {
                    key,
                    value: r.bytes(n)?,
                }
            }
            OP_TXN_PREPARE => Request::TxnPrepare {
                txn_id: r.u64()?,
                prio: (r.u64()?, r.u64()?),
                reads: r.reads()?,
                puts: r.puts()?,
            },
            OP_TXN_DECIDE => Request::TxnDecide {
                txn_id: r.u64()?,
                commit: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                commit_ts: r.u64()?,
            },
            OP_TXN_COMMIT => Request::TxnCommit {
                txn_id: r.u64()?,
                reads: r.reads()?,
                puts: r.puts()?,
            },
            OP_SNAP_CAPTURE => Request::SnapCapture,
            OP_SNAP_GET => Request::SnapGet {
                key: r.key()?,
                snap_ts: r.u64()?,
            },
            _ => return None,
        };
        r.done().then_some(req)
    }

    /// Encode wrapped in the request-id envelope (retry-capable clients).
    pub fn encode_framed(&self, req_id: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(41);
        buf.push(OP_FRAME_REQ);
        buf.extend_from_slice(&req_id.to_le_bytes());
        buf.extend_from_slice(&self.encode());
        buf
    }

    /// Decode either framing: returns `(Some(req_id), request)` for framed
    /// bytes, `(None, request)` for the legacy unframed encoding (baseline
    /// clients), `None` on malformed input.
    pub fn decode_any(buf: &[u8]) -> Option<(Option<u64>, Request)> {
        if buf.first() == Some(&OP_FRAME_REQ) {
            if buf.len() < 9 {
                return None;
            }
            let req_id = u64::from_le_bytes(buf[1..9].try_into().unwrap());
            Some((Some(req_id), Request::decode(&buf[9..])?))
        } else {
            Some((None, Request::decode(buf)?))
        }
    }
}

impl Response {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        match self {
            Response::Put {
                status,
                obj_off,
                value_off,
            } => {
                buf.push(OP_R_PUT);
                buf.push(*status as u8);
                buf.extend_from_slice(&obj_off.to_le_bytes());
                buf.extend_from_slice(&value_off.to_le_bytes());
            }
            Response::Get {
                status,
                obj_off,
                klen,
                vlen,
            } => {
                buf.push(OP_R_GET);
                buf.push(*status as u8);
                buf.extend_from_slice(&obj_off.to_le_bytes());
                buf.extend_from_slice(&klen.to_le_bytes());
                buf.extend_from_slice(&vlen.to_le_bytes());
            }
            Response::Ack { status } => {
                buf.push(OP_R_ACK);
                buf.push(*status as u8);
            }
            Response::TxnAck { status, commit_ts } => {
                buf.push(OP_R_TXN_ACK);
                buf.push(*status as u8);
                buf.extend_from_slice(&commit_ts.to_le_bytes());
            }
            Response::Snap { status, watermark } => {
                buf.push(OP_R_SNAP);
                buf.push(*status as u8);
                buf.extend_from_slice(&watermark.to_le_bytes());
            }
        }
        buf
    }

    /// Decode from wire bytes; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Response> {
        let mut r = Reader::new(buf);
        let resp = match r.u8()? {
            OP_R_PUT => Response::Put {
                status: Status::from_u8(r.u8()?)?,
                obj_off: r.u64()?,
                value_off: r.u64()?,
            },
            OP_R_GET => Response::Get {
                status: Status::from_u8(r.u8()?)?,
                obj_off: r.u64()?,
                klen: r.u16()?,
                vlen: r.u32()?,
            },
            OP_R_ACK => Response::Ack {
                status: Status::from_u8(r.u8()?)?,
            },
            OP_R_TXN_ACK => Response::TxnAck {
                status: Status::from_u8(r.u8()?)?,
                commit_ts: r.u64()?,
            },
            OP_R_SNAP => Response::Snap {
                status: Status::from_u8(r.u8()?)?,
                watermark: r.u64()?,
            },
            _ => return None,
        };
        r.done().then_some(resp)
    }

    /// Encode wrapped in the request-id envelope (mirrors the id of the
    /// framed request being answered).
    pub fn encode_framed(&self, req_id: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(33);
        buf.push(OP_FRAME_RESP);
        buf.extend_from_slice(&req_id.to_le_bytes());
        buf.extend_from_slice(&self.encode());
        buf
    }

    /// Decode either framing: `(Some(req_id), reply)` for framed bytes,
    /// `(None, reply)` for legacy unframed bytes, `None` on malformed input.
    pub fn decode_any(buf: &[u8]) -> Option<(Option<u64>, Response)> {
        if buf.first() == Some(&OP_FRAME_RESP) {
            if buf.len() < 9 {
                return None;
            }
            let req_id = u64::from_le_bytes(buf[1..9].try_into().unwrap());
            Some((Some(req_id), Response::decode(&buf[9..])?))
        } else {
            Some((None, Response::decode(buf)?))
        }
    }
}

impl Event {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        vec![match self {
            Event::CleanStart => OP_E_CLEAN_START,
            Event::CleanEnd => OP_E_CLEAN_END,
        }]
    }

    /// Decode from wire bytes; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Event> {
        match buf {
            [OP_E_CLEAN_START] => Some(Event::CleanStart),
            [OP_E_CLEAN_END] => Some(Event::CleanEnd),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrips() {
        let cases = vec![
            Request::Put {
                key: b"k1".to_vec(),
                vlen: 4096,
                crc: 0xDEAD_BEEF,
            },
            Request::Get { key: b"".to_vec() },
            Request::Del {
                key: vec![0xFF; 300],
            },
            Request::Persist { obj_off: u64::MAX },
            Request::RpcPut {
                key: b"key".to_vec(),
                value: vec![9; 1000],
            },
            Request::TxnPrepare {
                txn_id: 0x1122_3344_5566_7788,
                prio: (123_456, 7),
                reads: vec![(b"r1".to_vec(), 7), (b"".to_vec(), 0)],
                puts: vec![(b"w1".to_vec(), vec![1; 64]), (b"w2".to_vec(), vec![])],
            },
            Request::TxnDecide {
                txn_id: 42,
                commit: true,
                commit_ts: u64::MAX,
            },
            Request::TxnDecide {
                txn_id: 42,
                commit: false,
                commit_ts: 0,
            },
            Request::TxnCommit {
                txn_id: 1,
                reads: vec![],
                puts: vec![(b"k".to_vec(), vec![3; 17])],
            },
            Request::SnapCapture,
            Request::SnapGet {
                key: b"snapkey".to_vec(),
                snap_ts: 123_456_789,
            },
        ];
        for req in cases {
            assert_eq!(Request::decode(&req.encode()), Some(req));
        }
    }

    #[test]
    fn response_roundtrips() {
        let cases = vec![
            Response::Put {
                status: Status::Ok,
                obj_off: 12345,
                value_off: 12385,
            },
            Response::Get {
                status: Status::NotFound,
                obj_off: 0,
                klen: 32,
                vlen: 2048,
            },
            Response::Ack {
                status: Status::NoSpace,
            },
            Response::TxnAck {
                status: Status::Conflict,
                commit_ts: 0xFACE_FEED,
            },
            Response::Snap {
                status: Status::Ok,
                watermark: 987_654_321,
            },
        ];
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }
    }

    #[test]
    fn events_roundtrip() {
        for ev in [Event::CleanStart, Event::CleanEnd] {
            assert_eq!(Event::decode(&ev.encode()), Some(ev));
        }
        assert_eq!(Event::decode(&[0x00]), None);
        assert_eq!(Event::decode(&[]), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Request::Get { key: b"k".to_vec() }.encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf), None);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let buf = Request::RpcPut {
            key: b"key".to_vec(),
            value: vec![1, 2, 3, 4],
        }
        .encode();
        for cut in 0..buf.len() {
            assert_eq!(Request::decode(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn txn_requests_reject_truncation_and_garbage() {
        let reqs = [
            Request::TxnPrepare {
                txn_id: 9,
                prio: (9, 1),
                reads: vec![(b"r".to_vec(), 3)],
                puts: vec![(b"w".to_vec(), vec![5; 9])],
            },
            Request::TxnDecide {
                txn_id: 9,
                commit: true,
                commit_ts: 77,
            },
            Request::TxnCommit {
                txn_id: 9,
                reads: vec![],
                puts: vec![(b"w".to_vec(), vec![5; 9])],
            },
            Request::SnapGet {
                key: b"k".to_vec(),
                snap_ts: 11,
            },
        ];
        for req in reqs {
            let buf = req.encode();
            for cut in 0..buf.len() {
                assert_eq!(Request::decode(&buf[..cut]), None, "{req:?} cut at {cut}");
            }
            let mut garbled = buf.clone();
            garbled.push(0);
            assert_eq!(Request::decode(&garbled), None, "{req:?} + garbage");
        }
        // A decide byte other than 0/1 is malformed, not "truthy".
        let mut buf = Request::TxnDecide {
            txn_id: 1,
            commit: true,
            commit_ts: 2,
        }
        .encode();
        buf[9] = 2;
        assert_eq!(Request::decode(&buf), None);
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(Request::decode(&[0x7F, 0, 0]), None);
        assert_eq!(Response::decode(&[0x7F]), None);
    }

    #[test]
    fn framed_envelope_roundtrips_and_coexists_with_legacy() {
        let req = Request::Del { key: b"k".to_vec() };
        let framed = req.encode_framed(0xABCD_EF01_2345_6789);
        assert_eq!(
            Request::decode_any(&framed),
            Some((Some(0xABCD_EF01_2345_6789), req.clone()))
        );
        // Unframed bytes still decode, with no id.
        assert_eq!(Request::decode_any(&req.encode()), Some((None, req)));

        let resp = Response::Ack { status: Status::Ok };
        let framed = resp.encode_framed(7);
        assert_eq!(Response::decode_any(&framed), Some((Some(7), resp)));
        assert_eq!(Response::decode_any(&resp.encode()), Some((None, resp)));
    }

    #[test]
    fn framed_envelope_rejects_truncation_and_garbage() {
        let buf = Request::Get { key: b"k".to_vec() }.encode_framed(42);
        for cut in 0..buf.len() {
            assert_eq!(Request::decode_any(&buf[..cut]), None, "cut at {cut}");
        }
        let mut garbled = buf.clone();
        garbled.push(0);
        assert_eq!(Request::decode_any(&garbled), None);
    }

    proptest! {
        #[test]
        fn decoder_never_panics_on_fuzz(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Request::decode(&buf);
            let _ = Response::decode(&buf);
            let _ = Event::decode(&buf);
            let _ = Request::decode_any(&buf);
            let _ = Response::decode_any(&buf);
        }

        #[test]
        fn framed_roundtrips_any_id(
            key in proptest::collection::vec(any::<u8>(), 0..32),
            id in any::<u64>(),
        ) {
            let req = Request::Get { key };
            prop_assert_eq!(Request::decode_any(&req.encode_framed(id)), Some((Some(id), req)));
        }

        #[test]
        fn put_roundtrips_any_fields(
            key in proptest::collection::vec(any::<u8>(), 0..64),
            vlen in any::<u32>(),
            crc in any::<u32>(),
        ) {
            let req = Request::Put { key, vlen, crc };
            prop_assert_eq!(Request::decode(&req.encode()), Some(req));
        }

        #[test]
        fn txn_roundtrips_any_fields(
            txn_id in any::<u64>(),
            prio in (any::<u64>(), any::<u64>()),
            reads in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..16), any::<u32>()), 0..5),
            puts in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..16),
                 proptest::collection::vec(any::<u8>(), 0..48)), 0..5),
        ) {
            let req = Request::TxnCommit { txn_id, reads: reads.clone(), puts: puts.clone() };
            prop_assert_eq!(Request::decode(&req.encode()), Some(req));
            let req = Request::TxnPrepare { txn_id, prio, reads, puts };
            prop_assert_eq!(Request::decode(&req.encode()), Some(req));
        }
    }
}
