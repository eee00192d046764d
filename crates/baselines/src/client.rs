//! The one client type, and the PUT and GET paths several systems share.

use efactory::client::RemoteKv;
use efactory::hashtable::{find_in_window, fingerprint, Entry, BUCKET_LEN, NPROBE};
use efactory::layout::{self, Fetched, ObjHeader};
use efactory::protocol::{Request, Response, Status, StoreError};
use efactory::server::StoreDesc;
use efactory_checksum::crc32c;
use efactory_rnic::{ClientQp, Fabric, Node};

use crate::{erda, imm, rpc_store, saw, Baseline, BaselineServer};

/// A comparison system's client: its kind, a queue pair to the server,
/// and the server's descriptor.
pub struct BaselineClient {
    kind: Baseline,
    pub(crate) qp: ClientQp,
    pub(crate) desc: StoreDesc,
}

impl BaselineClient {
    /// Connect `local` to `server`. Call from within a sim process.
    pub fn connect(
        fabric: &Fabric,
        local: &Node,
        server: &BaselineServer,
    ) -> Result<Self, StoreError> {
        Ok(BaselineClient {
            kind: server.kind,
            qp: fabric.connect(local, &server.base.node)?,
            desc: server.base.desc(),
        })
    }

    /// Store `value` under `key` with the system's durability contract.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        match self.kind {
            Baseline::Saw => saw::put(self, key, value),
            Baseline::Imm => imm::put(self, key, value),
            Baseline::Erda | Baseline::Forca | Baseline::CaNoper => {
                self.put_without_persist(key, value)
            }
            Baseline::Rpc => rpc_store::put(self, key, value),
        }
    }

    /// Read `key`; `Ok(None)` means absent.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        match self.kind {
            Baseline::Saw | Baseline::Imm | Baseline::CaNoper => self.get_unverified(key),
            Baseline::Erda => erda::get(self, key),
            Baseline::Forca | Baseline::Rpc => self.get_via_server(key),
        }
    }

    /// The allocation RPC of the client-active PUTs: the server stages the
    /// object and returns `(object offset, value offset)` for the
    /// one-sided value write.
    pub(crate) fn alloc(&self, key: &[u8], value: &[u8]) -> Result<(u64, u64), StoreError> {
        let req = Request::Put {
            key: key.to_vec(),
            vlen: value.len() as u32,
            crc: crc32c(value),
        };
        let raw = self.qp.rpc(req.encode())?;
        match Response::decode(&raw).ok_or(StoreError::Protocol)? {
            Response::Put {
                status: Status::Ok,
                obj_off,
                value_off,
            } => Ok((obj_off, value_off)),
            Response::Put { status, .. } => Err(StoreError::Status(status)),
            _ => Err(StoreError::Protocol),
        }
    }

    /// One-sided write of a non-empty value at `value_off`.
    pub(crate) fn write_value(&self, value_off: u64, value: &[u8]) -> Result<(), StoreError> {
        if !value.is_empty() {
            self.qp
                .rdma_write(&self.desc.mr, value_off as usize, value.to_vec())?;
        }
        Ok(())
    }

    /// CA w/o persistence, Erda and Forca: alloc RPC + one-sided value
    /// write, with no durability wait (and none coming later either).
    fn put_without_persist(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let (_, value_off) = self.alloc(key, value)?;
        self.write_value(value_off, value)
    }

    /// SAW, IMM and CA w/o persistence: two pure RDMA reads, unverified.
    /// SAW and IMM need no verification, because their entries only ever
    /// point at durable objects; CA w/o persistence has none to offer.
    fn get_unverified(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.fetch_entry(fingerprint(key))? else {
            return Ok(None);
        };
        let off = entry.current();
        if off == 0 {
            return Ok(None);
        }
        let fetched = self.fetch_object(off, entry.klen, entry.vlen, key)?;
        Ok(fetched.map(|(_, value)| value))
    }

    /// Forca and RPC: the server locates the object (Forca also verifies
    /// and persists it), then one one-sided object read.
    fn get_via_server(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let raw = self.qp.rpc(Request::Get { key: key.to_vec() }.encode())?;
        let Response::Get {
            status,
            obj_off,
            klen,
            vlen,
        } = Response::decode(&raw).ok_or(StoreError::Protocol)?
        else {
            return Err(StoreError::Protocol);
        };
        match status {
            Status::NotFound => return Ok(None),
            Status::Ok => {}
            s => return Err(StoreError::Status(s)),
        }
        let Some((_, value)) = self.fetch_object(obj_off, klen, vlen, key)? else {
            return Err(StoreError::Protocol);
        };
        Ok(Some(value))
    }

    /// One-RDMA-read fetch of the probe window; returns the entry for `fp`.
    pub(crate) fn fetch_entry(&self, fp: u64) -> Result<Option<Entry>, StoreError> {
        let ht = self.desc.layout.hashtable();
        let window = self.qp.rdma_read(
            &self.desc.mr,
            ht.entry_off(ht.home(fp)),
            NPROBE * BUCKET_LEN,
        )?;
        Ok(find_in_window(&window, fp).map(|(_, e)| e))
    }

    /// One-RDMA-read fetch of a whole object, parsed like eFactory's
    /// (header, sizes, key) but without its read rule. Returns the header
    /// and the value bytes.
    pub(crate) fn fetch_object(
        &self,
        off: u64,
        klen: u16,
        vlen: u32,
        key: &[u8],
    ) -> Result<Option<(ObjHeader, Vec<u8>)>, StoreError> {
        let size = layout::object_size(klen as usize, vlen as usize);
        let obj = self.qp.rdma_read(&self.desc.mr, off as usize, size)?;
        Ok(Fetched::parse(&obj, key, klen, vlen).map(|f| (f.hdr, f.value().to_vec())))
    }
}

/// Decode a server's `Ack` reply: `Ok` on success, its status otherwise.
pub(crate) fn ack(raw: &[u8]) -> Result<(), StoreError> {
    match Response::decode(raw).ok_or(StoreError::Protocol)? {
        Response::Ack { status: Status::Ok } => Ok(()),
        Response::Ack { status } => Err(StoreError::Status(status)),
        _ => Err(StoreError::Protocol),
    }
}

impl RemoteKv for BaselineClient {
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.get(key)
    }
}
