//! The `SANW` wire protocol: length-prefixed request/response frames in
//! the house little-endian framing style of `SANCSRBF`.
//!
//! See the crate-level docs for the byte-exact frame layout diagrams and
//! the versioning policy. This module owns the types ([`Request`],
//! [`Response`], [`Query`], [`QueryResult`], [`ErrorCode`]) and the
//! codec: [`Request::encode`]/[`Request::decode`] and
//! [`Response::encode`]/[`Response::decode`] for in-memory frames, plus
//! `read_from`/`write_to` for blocking streams.
//!
//! The decoder is an **untrusted-bytes boundary** (any process can
//! connect and send anything), so it follows the same discipline as the
//! snapshot store:
//!
//! * *bounds before bytes* — declared lengths are checked against the
//!   protocol maxima **before** any buffer is sized from them;
//! * every failure is a typed [`NetError`], never a panic;
//! * header fields are validated in offset order, so the corruption
//!   matrix can pin down exactly which check rejects each crafted frame.

use san_graph::wire::{WireReader, WireTruncated, WireWriter};
use std::io::{self, Read, Write};

/// Frame magic: every request and response starts with these 4 bytes.
pub const NET_MAGIC: [u8; 4] = *b"SANW";

/// Protocol version carried by every frame. Single-valued: peers reject
/// anything else (see the crate docs' versioning policy). v2 added the
/// `stats` query (id 7) and its text payload — a new query id is a new
/// version, per policy.
pub const NET_VERSION: u16 = 2;

/// Fixed request header size (magic → params length), bytes.
pub const REQUEST_HEADER_BYTES: usize = 16;

/// Fixed response header size (magic → payload length), bytes.
pub const RESPONSE_HEADER_BYTES: usize = 20;

/// Hard bound on a request's declared `params_len`. The largest v2
/// params block is 12 bytes; the headroom is for future versions, and
/// the bound is what keeps a hostile length prefix from sizing a
/// buffer.
pub const MAX_PARAMS_BYTES: u32 = 64;

/// Largest neighbour page a single [`Query::OutNeighbors`] may request
/// or a [`QueryResult::Neighbors`] may carry.
pub const MAX_NEIGHBOR_PAGE: u32 = 4096;

/// Hard bound on a non-stats response's declared `payload_len`: the
/// full-page neighbour payload (`8 + 4 ×` [`MAX_NEIGHBOR_PAGE`]). The
/// `stats` query (id 7) alone is allowed the larger
/// [`MAX_STATS_BYTES`]-based bound — the response header carries the
/// query id *before* the payload length, so the per-query bound is
/// known by the time the length is validated.
pub const MAX_PAYLOAD_BYTES: u32 = 8 + 4 * MAX_NEIGHBOR_PAGE;

/// Hard bound on the UTF-8 text a [`QueryResult::Stats`] payload may
/// carry (the metrics exposition grows with registered series, not with
/// client input; 1 MiB is generous headroom). The stats payload itself
/// is `4 + len` bytes (`u32` length prefix + text).
pub const MAX_STATS_BYTES: u32 = 1 << 20;

/// Response-payload bound for `query_id` (see [`MAX_PAYLOAD_BYTES`]
/// and [`MAX_STATS_BYTES`]).
fn max_payload_for(query_id: u16) -> u32 {
    if query_id == Query::Stats.id() {
        4 + MAX_STATS_BYTES
    } else {
        MAX_PAYLOAD_BYTES
    }
}

/// Largest possible encoded request frame.
pub const MAX_REQUEST_FRAME_BYTES: usize = REQUEST_HEADER_BYTES + MAX_PARAMS_BYTES as usize;

/// Largest possible encoded response frame (a full stats payload).
pub const MAX_RESPONSE_FRAME_BYTES: usize = RESPONSE_HEADER_BYTES + 4 + MAX_STATS_BYTES as usize;

/// Highest day a request may name. Timelines are day-indexed from 0 and
/// the paper's crawl spans months, so 2²⁰ days (~2870 years) is pure
/// headroom; the bound exists so a hostile `day` cannot widen any
/// server-side arithmetic.
pub const MAX_DAY: u32 = 1 << 20;

/// Typed decode/transport failure. Every malformed frame maps to
/// exactly one variant — the corruption matrix
/// (`tests/proto_corruption.rs`) pins each crafted mutation to its
/// variant, and nothing in this module panics on wire input.
#[derive(Debug)]
pub enum NetError {
    /// The frame ended inside `section`.
    Truncated {
        /// Which field or section ran dry.
        section: &'static str,
    },
    /// The first 4 bytes were not [`NET_MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The version word was not [`NET_VERSION`].
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The query id names no known query.
    UnknownQuery {
        /// The id actually found.
        id: u16,
    },
    /// The response status names neither success nor a known
    /// [`ErrorCode`].
    UnknownStatus {
        /// The status word actually found.
        code: u16,
    },
    /// A declared length prefix exceeds the protocol bound. Raised
    /// *before* any buffer is sized from the length.
    FrameTooLarge {
        /// The declared length.
        declared: u32,
        /// The protocol bound it exceeds.
        max: u32,
    },
    /// The requested day exceeds [`MAX_DAY`].
    DayOutOfRange {
        /// The day actually found.
        day: u32,
    },
    /// The reserved header word was not zero (required so a future
    /// version can claim it unambiguously).
    ReservedNonZero {
        /// The word actually found.
        found: u16,
    },
    /// Params or payload bytes are malformed for the frame's query.
    BadParams {
        /// The query (or section) whose bytes are malformed.
        query: &'static str,
        /// What was wrong.
        reason: &'static str,
    },
    /// Transport-level IO failure (not a protocol violation).
    Io(io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated { section } => write!(f, "frame truncated in {section}"),
            NetError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            NetError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (want {NET_VERSION})"
                )
            }
            NetError::UnknownQuery { id } => write!(f, "unknown query id {id}"),
            NetError::UnknownStatus { code } => write!(f, "unknown response status {code}"),
            NetError::FrameTooLarge { declared, max } => {
                write!(f, "declared length {declared} exceeds protocol bound {max}")
            }
            NetError::DayOutOfRange { day } => {
                write!(f, "day {day} exceeds protocol bound {MAX_DAY}")
            }
            NetError::ReservedNonZero { found } => {
                write!(f, "reserved header word is {found:#06x}, must be zero")
            }
            NetError::BadParams { query, reason } => {
                write!(f, "malformed {query} bytes: {reason}")
            }
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireTruncated> for NetError {
    fn from(e: WireTruncated) -> NetError {
        NetError::Truncated { section: e.section }
    }
}

/// One read-only query against a served day. Ids are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Node/link counts of the snapshot — id 0, no params.
    Counts,
    /// Out/in/attribute degree of one social node — id 1.
    Degrees {
        /// The social node.
        u: u32,
    },
    /// One page of a node's out-neighbour row — id 2. `limit` is capped
    /// at [`MAX_NEIGHBOR_PAGE`].
    OutNeighbors {
        /// The social node.
        u: u32,
        /// Row offset the page starts at.
        offset: u32,
        /// Maximum ids returned (`≤` [`MAX_NEIGHBOR_PAGE`]).
        limit: u32,
    },
    /// Directed social-link membership — id 3.
    HasLink {
        /// Link source.
        src: u32,
        /// Link destination.
        dst: u32,
    },
    /// `|Γs(u) ∩ Γs(v)|` over out-neighbourhoods — id 4.
    CommonNeighbors {
        /// First node.
        u: u32,
        /// Second node.
        v: u32,
    },
    /// Global link reciprocity of the snapshot — id 5, no params. O(E)
    /// once per resident day, then O(1): the server memoises the value
    /// in the day's cache entry until the day is evicted.
    Reciprocity,
    /// Local clustering coefficient of one social node — id 6.
    LocalClustering {
        /// The social node.
        u: u32,
    },
    /// The server's metrics snapshot as Prometheus text exposition —
    /// id 7 (v2), no params. The `day` field is ignored; `day_served`
    /// echoes 0.
    Stats,
}

impl Query {
    /// The wire query id.
    pub fn id(&self) -> u16 {
        match self {
            Query::Counts => 0,
            Query::Degrees { .. } => 1,
            Query::OutNeighbors { .. } => 2,
            Query::HasLink { .. } => 3,
            Query::CommonNeighbors { .. } => 4,
            Query::Reciprocity => 5,
            Query::LocalClustering { .. } => 6,
            Query::Stats => 7,
        }
    }

    /// Human-readable query name (error messages, bench labels).
    pub fn name(&self) -> &'static str {
        query_name(self.id())
    }

    /// Exact params-block size for a query id, or `None` for an unknown
    /// id.
    fn params_len_for(id: u16) -> Option<u32> {
        match id {
            0 | 5 | 7 => Some(0),
            1 | 6 => Some(4),
            3 | 4 => Some(8),
            2 => Some(12),
            _ => None,
        }
    }
}

fn query_name(id: u16) -> &'static str {
    match id {
        0 => "counts",
        1 => "degrees",
        2 => "out_neighbors",
        3 => "has_link",
        4 => "common_neighbors",
        5 => "reciprocity",
        6 => "local_clustering",
        7 => "stats",
        _ => "unknown",
    }
}

/// Typed error a server answers with instead of a result. The wire
/// status word is `0` for success and the discriminant below otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control rejected the request (worker pool, in-flight
    /// cap, or resident-byte budget) — retry later.
    Busy = 1,
    /// No persisted day exists at or before the requested day.
    NoSnapshot = 2,
    /// A node id in the params exceeds the served snapshot.
    NodeOutOfRange = 3,
    /// The server is draining for shutdown.
    ShuttingDown = 4,
    /// Mapping/validating the snapshot failed server-side.
    StoreFailed = 5,
    /// The request frame itself was malformed (best-effort reply before
    /// the server closes the now-unsynchronised connection).
    BadRequest = 6,
}

impl ErrorCode {
    fn from_status(code: u16) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::Busy),
            2 => Some(ErrorCode::NoSnapshot),
            3 => Some(ErrorCode::NodeOutOfRange),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::StoreFailed),
            6 => Some(ErrorCode::BadRequest),
            _ => None,
        }
    }
}

/// One request frame: a day plus a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The day asked for (served nearest-at-or-before). Must be
    /// `≤` [`MAX_DAY`].
    pub day: u32,
    /// The query to run.
    pub query: Query,
}

/// Validated request header fields (internal decode intermediary).
struct RequestHeader {
    query_id: u16,
    day: u32,
    params_len: u32,
}

/// Parses + validates a request header in offset order: magic →
/// version → query id → day → params length (bound, then exact match).
fn parse_request_header(r: &mut WireReader<'_>) -> Result<RequestHeader, NetError> {
    let magic: [u8; 4] = r.take_array("request magic")?;
    if magic != NET_MAGIC {
        return Err(NetError::BadMagic { found: magic });
    }
    let version = r.take_u16("request version")?;
    if version != NET_VERSION {
        return Err(NetError::UnsupportedVersion { found: version });
    }
    let query_id = r.take_u16("request query id")?;
    let Some(expected) = Query::params_len_for(query_id) else {
        return Err(NetError::UnknownQuery { id: query_id });
    };
    let day = r.take_u32("request day")?;
    if day > MAX_DAY {
        return Err(NetError::DayOutOfRange { day });
    }
    let params_len = r.take_u32("request params length")?;
    if params_len > MAX_PARAMS_BYTES {
        return Err(NetError::FrameTooLarge {
            declared: params_len,
            max: MAX_PARAMS_BYTES,
        });
    }
    if params_len != expected {
        return Err(NetError::BadParams {
            query: query_name(query_id),
            reason: "params length does not match the query id",
        });
    }
    Ok(RequestHeader {
        query_id,
        day,
        params_len,
    })
}

impl Request {
    /// Encodes the frame (header + params).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(MAX_REQUEST_FRAME_BYTES);
        w.put_bytes(&NET_MAGIC);
        w.put_u16(NET_VERSION);
        w.put_u16(self.query.id());
        w.put_u32(self.day);
        match self.query {
            Query::Counts | Query::Reciprocity | Query::Stats => w.put_u32(0),
            Query::Degrees { u } | Query::LocalClustering { u } => {
                w.put_u32(4);
                w.put_u32(u);
            }
            Query::HasLink { src: a, dst: b } | Query::CommonNeighbors { u: a, v: b } => {
                w.put_u32(8);
                w.put_u32(a);
                w.put_u32(b);
            }
            Query::OutNeighbors { u, offset, limit } => {
                w.put_u32(12);
                w.put_u32(u);
                w.put_u32(offset);
                w.put_u32(limit);
            }
        }
        w.finish()
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// request and the number of bytes consumed (trailing bytes are the
    /// next frame's business). Never panics; never reads past the frame.
    pub fn decode(bytes: &[u8]) -> Result<(Request, usize), NetError> {
        let mut r = WireReader::new(bytes);
        let header = parse_request_header(&mut r)?;
        let params = r.take_bytes(header.params_len as usize, "request params")?;
        let query = parse_params(header.query_id, params)?;
        Ok((
            Request {
                day: header.day,
                query,
            },
            r.consumed(),
        ))
    }

    /// Validates a request header (first [`REQUEST_HEADER_BYTES`]
    /// bytes) and returns the params-block length that follows it — the
    /// piecewise entry point for servers reading header and params
    /// separately. *Bounds before bytes*: no params buffer should be
    /// sized until this passes.
    pub fn params_len(header: &[u8]) -> Result<usize, NetError> {
        let mut r = WireReader::new(header);
        Ok(parse_request_header(&mut r)?.params_len as usize)
    }

    /// Reads one frame from a blocking stream. `Ok(None)` is a clean
    /// close (EOF before the first header byte); EOF anywhere later is
    /// [`NetError::Truncated`]. The params buffer is sized only *after*
    /// the header's declared length passes its bound.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Request>, NetError> {
        let mut header = [0u8; REQUEST_HEADER_BYTES];
        if !read_full(r, &mut header, "request header")? {
            return Ok(None);
        }
        let mut reader = WireReader::new(&header);
        let parsed = parse_request_header(&mut reader)?;
        let mut params = vec![0u8; parsed.params_len as usize];
        if !read_full(r, &mut params, "request params")? {
            return Err(NetError::Truncated {
                section: "request params",
            });
        }
        let query = parse_params(parsed.query_id, &params)?;
        Ok(Some(Request {
            day: parsed.day,
            query,
        }))
    }

    /// Writes the frame to a blocking stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }
}

/// Parses a params block whose length already matched the query id.
fn parse_params(query_id: u16, params: &[u8]) -> Result<Query, NetError> {
    let mut r = WireReader::new(params);
    let query = match query_id {
        0 => Query::Counts,
        5 => Query::Reciprocity,
        7 => Query::Stats,
        1 => Query::Degrees {
            u: r.take_u32("degrees params")?,
        },
        6 => Query::LocalClustering {
            u: r.take_u32("local_clustering params")?,
        },
        3 => Query::HasLink {
            src: r.take_u32("has_link params")?,
            dst: r.take_u32("has_link params")?,
        },
        4 => Query::CommonNeighbors {
            u: r.take_u32("common_neighbors params")?,
            v: r.take_u32("common_neighbors params")?,
        },
        2 => {
            let u = r.take_u32("out_neighbors params")?;
            let offset = r.take_u32("out_neighbors params")?;
            let limit = r.take_u32("out_neighbors params")?;
            if limit > MAX_NEIGHBOR_PAGE {
                return Err(NetError::BadParams {
                    query: "out_neighbors",
                    reason: "page limit exceeds MAX_NEIGHBOR_PAGE",
                });
            }
            Query::OutNeighbors { u, offset, limit }
        }
        id => return Err(NetError::UnknownQuery { id }),
    };
    Ok(query)
}

/// A successful query's typed result. The variant always matches the
/// request's query id (the codec enforces it on both ends).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Snapshot-wide counts.
    Counts {
        /// Social nodes.
        social_nodes: u64,
        /// Attribute nodes.
        attr_nodes: u64,
        /// Directed social links.
        social_links: u64,
        /// Attribute links.
        attr_links: u64,
    },
    /// Per-node degrees.
    Degrees {
        /// Out-degree.
        out: u32,
        /// In-degree.
        inc: u32,
        /// Attribute degree.
        attr: u32,
    },
    /// One neighbour page: the row's full length plus the page of ids.
    Neighbors {
        /// Total out-degree of the row (for pagination).
        total: u32,
        /// The page (`len ≤` [`MAX_NEIGHBOR_PAGE`]).
        ids: Vec<u32>,
    },
    /// Directed link membership.
    HasLink(bool),
    /// Common out-neighbour count.
    CommonNeighbors(u64),
    /// Global reciprocity.
    Reciprocity(f64),
    /// Local clustering coefficient.
    LocalClustering(f64),
    /// Metrics snapshot as Prometheus text exposition (v2). Wire form:
    /// `u32` byte length (`≤` [`MAX_STATS_BYTES`]) then that many UTF-8
    /// bytes.
    Stats(String),
}

impl QueryResult {
    /// The query id this result answers.
    pub fn query_id(&self) -> u16 {
        match self {
            QueryResult::Counts { .. } => 0,
            QueryResult::Degrees { .. } => 1,
            QueryResult::Neighbors { .. } => 2,
            QueryResult::HasLink(_) => 3,
            QueryResult::CommonNeighbors(_) => 4,
            QueryResult::Reciprocity(_) => 5,
            QueryResult::LocalClustering(_) => 6,
            QueryResult::Stats(_) => 7,
        }
    }

    fn encode_payload(&self, w: &mut WireWriter) {
        match self {
            QueryResult::Counts {
                social_nodes,
                attr_nodes,
                social_links,
                attr_links,
            } => {
                w.put_u64(*social_nodes);
                w.put_u64(*attr_nodes);
                w.put_u64(*social_links);
                w.put_u64(*attr_links);
            }
            QueryResult::Degrees { out, inc, attr } => {
                w.put_u32(*out);
                w.put_u32(*inc);
                w.put_u32(*attr);
            }
            QueryResult::Neighbors { total, ids } => {
                w.put_u32(*total);
                w.put_u32(ids.len() as u32);
                for id in ids {
                    w.put_u32(*id);
                }
            }
            QueryResult::HasLink(present) => w.put_u8(u8::from(*present)),
            QueryResult::CommonNeighbors(n) => w.put_u64(*n),
            QueryResult::Reciprocity(v) | QueryResult::LocalClustering(v) => w.put_f64(*v),
            QueryResult::Stats(text) => {
                w.put_u32(text.len() as u32);
                w.put_bytes(text.as_bytes());
            }
        }
    }
}

/// Parses a success payload for `query_id`. `payload` is exactly the
/// declared (already bounds-checked) payload block.
fn parse_payload(query_id: u16, payload: &[u8]) -> Result<QueryResult, NetError> {
    let name = query_name(query_id);
    let exact = |want: usize| -> Result<(), NetError> {
        if payload.len() != want {
            return Err(NetError::BadParams {
                query: name,
                reason: "payload length does not match the query id",
            });
        }
        Ok(())
    };
    let mut r = WireReader::new(payload);
    let result = match query_id {
        0 => {
            exact(32)?;
            QueryResult::Counts {
                social_nodes: r.take_u64("counts payload")?,
                attr_nodes: r.take_u64("counts payload")?,
                social_links: r.take_u64("counts payload")?,
                attr_links: r.take_u64("counts payload")?,
            }
        }
        1 => {
            exact(12)?;
            QueryResult::Degrees {
                out: r.take_u32("degrees payload")?,
                inc: r.take_u32("degrees payload")?,
                attr: r.take_u32("degrees payload")?,
            }
        }
        2 => {
            let total = r.take_u32("neighbors payload")?;
            let count = r.take_u32("neighbors payload")?;
            if count > MAX_NEIGHBOR_PAGE {
                return Err(NetError::FrameTooLarge {
                    declared: count,
                    max: MAX_NEIGHBOR_PAGE,
                });
            }
            exact(8 + 4 * count as usize)?;
            let mut ids = Vec::with_capacity(count as usize);
            for _ in 0..count {
                ids.push(r.take_u32("neighbors payload")?);
            }
            QueryResult::Neighbors { total, ids }
        }
        3 => {
            exact(1)?;
            match r.take_u8("has_link payload")? {
                0 => QueryResult::HasLink(false),
                1 => QueryResult::HasLink(true),
                _ => {
                    return Err(NetError::BadParams {
                        query: "has_link",
                        reason: "boolean byte is neither 0 nor 1",
                    })
                }
            }
        }
        4 => {
            exact(8)?;
            QueryResult::CommonNeighbors(r.take_u64("common_neighbors payload")?)
        }
        5 => {
            exact(8)?;
            QueryResult::Reciprocity(r.take_f64("reciprocity payload")?)
        }
        6 => {
            exact(8)?;
            QueryResult::LocalClustering(r.take_f64("local_clustering payload")?)
        }
        7 => {
            let len = r.take_u32("stats payload")?;
            if len > MAX_STATS_BYTES {
                return Err(NetError::FrameTooLarge {
                    declared: len,
                    max: MAX_STATS_BYTES,
                });
            }
            exact(4 + len as usize)?;
            let bytes = r.take_bytes(len as usize, "stats payload")?;
            match std::str::from_utf8(bytes) {
                Ok(text) => QueryResult::Stats(text.to_string()),
                Err(_) => {
                    return Err(NetError::BadParams {
                        query: "stats",
                        reason: "payload is not valid UTF-8",
                    })
                }
            }
        }
        id => return Err(NetError::UnknownQuery { id }),
    };
    Ok(result)
}

/// One response frame: a typed result or a typed error code.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query ran; `day_served` is the persisted day that answered
    /// it (nearest at or before the requested day).
    Ok {
        /// The persisted day that served the query.
        day_served: u32,
        /// The typed result (variant matches the request's query id).
        result: QueryResult,
    },
    /// The query was rejected with a typed code; `query_id` echoes the
    /// request.
    Err {
        /// Echo of the request's query id (0 when the server never
        /// decoded one, e.g. a connection-level `Busy`).
        query_id: u16,
        /// Why the query was rejected.
        code: ErrorCode,
    },
}

/// Validated response header fields (internal decode intermediary).
struct ResponseHeader {
    status: u16,
    query_id: u16,
    day_served: u32,
    payload_len: u32,
}

/// Parses + validates a response header in offset order: magic →
/// version → status → query id → reserved word → payload length bound.
fn parse_response_header(r: &mut WireReader<'_>) -> Result<ResponseHeader, NetError> {
    let magic: [u8; 4] = r.take_array("response magic")?;
    if magic != NET_MAGIC {
        return Err(NetError::BadMagic { found: magic });
    }
    let version = r.take_u16("response version")?;
    if version != NET_VERSION {
        return Err(NetError::UnsupportedVersion { found: version });
    }
    let status = r.take_u16("response status")?;
    if status != 0 && ErrorCode::from_status(status).is_none() {
        return Err(NetError::UnknownStatus { code: status });
    }
    let query_id = r.take_u16("response query id")?;
    if status == 0 && Query::params_len_for(query_id).is_none() {
        return Err(NetError::UnknownQuery { id: query_id });
    }
    let reserved = r.take_u16("response reserved word")?;
    if reserved != 0 {
        return Err(NetError::ReservedNonZero { found: reserved });
    }
    let day_served = r.take_u32("response day")?;
    let payload_len = r.take_u32("response payload length")?;
    // Per-query bound: the query id (validated above, and at a lower
    // offset) picks the bound the declared length is checked against.
    let max = max_payload_for(query_id);
    if payload_len > max {
        return Err(NetError::FrameTooLarge {
            declared: payload_len,
            max,
        });
    }
    if status != 0 && payload_len != 0 {
        return Err(NetError::BadParams {
            query: "error response",
            reason: "error responses carry no payload",
        });
    }
    Ok(ResponseHeader {
        status,
        query_id,
        day_served,
        payload_len,
    })
}

impl Response {
    /// Shorthand for a typed error response.
    pub fn err(query_id: u16, code: ErrorCode) -> Response {
        Response::Err { query_id, code }
    }

    /// The error code, when this is an error response.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Err { code, .. } => Some(*code),
            Response::Ok { .. } => None,
        }
    }

    /// Encodes the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(RESPONSE_HEADER_BYTES + 32);
        w.put_bytes(&NET_MAGIC);
        w.put_u16(NET_VERSION);
        match self {
            Response::Ok { day_served, result } => {
                w.put_u16(0);
                w.put_u16(result.query_id());
                w.put_u16(0);
                w.put_u32(*day_served);
                let mut payload = WireWriter::with_capacity(32);
                result.encode_payload(&mut payload);
                let payload = payload.finish();
                w.put_u32(payload.len() as u32);
                w.put_bytes(&payload);
            }
            Response::Err { query_id, code } => {
                w.put_u16(*code as u16);
                w.put_u16(*query_id);
                w.put_u16(0);
                w.put_u32(0);
                w.put_u32(0);
            }
        }
        w.finish()
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// response and the bytes consumed. Never panics; never reads past
    /// the frame.
    pub fn decode(bytes: &[u8]) -> Result<(Response, usize), NetError> {
        let mut r = WireReader::new(bytes);
        let header = parse_response_header(&mut r)?;
        let payload = r.take_bytes(header.payload_len as usize, "response payload")?;
        let response = match ErrorCode::from_status(header.status) {
            None => Response::Ok {
                day_served: header.day_served,
                result: parse_payload(header.query_id, payload)?,
            },
            Some(code) => Response::Err {
                query_id: header.query_id,
                code,
            },
        };
        Ok((response, r.consumed()))
    }

    /// Reads one frame from a blocking stream. `Ok(None)` is a clean
    /// close before the first header byte (e.g. a server that drained
    /// away); EOF anywhere later is [`NetError::Truncated`]. The payload
    /// buffer is sized only *after* the declared length passes its
    /// bound.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Response>, NetError> {
        let mut header = [0u8; RESPONSE_HEADER_BYTES];
        if !read_full(r, &mut header, "response header")? {
            return Ok(None);
        }
        let mut reader = WireReader::new(&header);
        let parsed = parse_response_header(&mut reader)?;
        let mut payload = vec![0u8; parsed.payload_len as usize];
        if !read_full(r, &mut payload, "response payload")? {
            return Err(NetError::Truncated {
                section: "response payload",
            });
        }
        let response = match ErrorCode::from_status(parsed.status) {
            None => Response::Ok {
                day_served: parsed.day_served,
                result: parse_payload(parsed.query_id, &payload)?,
            },
            Some(code) => Response::Err {
                query_id: parsed.query_id,
                code,
            },
        };
        Ok(Some(response))
    }

    /// Writes the frame to a blocking stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }
}

/// Fills `buf` from the stream. `Ok(false)` is a clean EOF before the
/// first byte; EOF mid-buffer is [`NetError::Truncated`] naming
/// `section`. An empty `buf` trivially succeeds.
fn read_full(r: &mut impl Read, buf: &mut [u8], section: &'static str) -> Result<bool, NetError> {
    let mut got = 0;
    while got < buf.len() {
        // BOUNDS: `got` only grows by the bytes `read` reported and the
        // loop guard keeps it < buf.len(), so the slice start is in range.
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(NetError::Truncated { section });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_layout_is_byte_exact() {
        let frame = Request {
            day: 7,
            query: Query::Degrees { u: 0x0102_0304 },
        }
        .encode();
        assert_eq!(&frame[..4], b"SANW");
        assert_eq!(frame[4..6], [2, 0]); // version 2 LE
        assert_eq!(frame[6..8], [1, 0]); // query id 1
        assert_eq!(frame[8..12], [7, 0, 0, 0]); // day
        assert_eq!(frame[12..16], [4, 0, 0, 0]); // params_len
        assert_eq!(frame[16..20], [0x04, 0x03, 0x02, 0x01]); // u LE
        assert_eq!(frame.len(), REQUEST_HEADER_BYTES + 4);
    }

    #[test]
    fn error_response_layout_is_byte_exact() {
        let frame = Response::err(3, ErrorCode::Busy).encode();
        assert_eq!(&frame[..4], b"SANW");
        assert_eq!(frame[4..6], [2, 0]); // version
        assert_eq!(frame[6..8], [1, 0]); // status = Busy
        assert_eq!(frame[8..10], [3, 0]); // query id echo
        assert_eq!(frame[10..12], [0, 0]); // reserved
        assert_eq!(frame[12..16], [0, 0, 0, 0]); // day_served
        assert_eq!(frame[16..20], [0, 0, 0, 0]); // payload_len
        assert_eq!(frame.len(), RESPONSE_HEADER_BYTES);
    }

    #[test]
    fn stream_roundtrip_via_cursor() {
        let req = Request {
            day: 12,
            query: Query::OutNeighbors {
                u: 9,
                offset: 2,
                limit: 100,
            },
        };
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(Request::read_from(&mut cursor).unwrap(), Some(req));
        assert_eq!(Request::read_from(&mut cursor).unwrap(), None);

        let resp = Response::Ok {
            day_served: 11,
            result: QueryResult::Neighbors {
                total: 3,
                ids: vec![1, 2, 3],
            },
        };
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(Response::read_from(&mut cursor).unwrap(), Some(resp));
        assert_eq!(Response::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn stats_frames_round_trip_with_exact_layout() {
        let frame = Request {
            day: 0,
            query: Query::Stats,
        }
        .encode();
        assert_eq!(frame[6..8], [7, 0]); // query id 7
        assert_eq!(frame[12..16], [0, 0, 0, 0]); // no params
        assert_eq!(frame.len(), REQUEST_HEADER_BYTES);
        assert_eq!(Request::decode(&frame).unwrap().0.query, Query::Stats);

        let text = "# TYPE san_net_requests counter\nsan_net_requests 3\n";
        let resp = Response::Ok {
            day_served: 0,
            result: QueryResult::Stats(text.to_string()),
        };
        let frame = resp.encode();
        // Payload: u32 length prefix then the UTF-8 bytes.
        assert_eq!(
            frame[RESPONSE_HEADER_BYTES..RESPONSE_HEADER_BYTES + 4],
            (text.len() as u32).to_le_bytes()
        );
        assert_eq!(&frame[RESPONSE_HEADER_BYTES + 4..], text.as_bytes());
        assert_eq!(Response::decode(&frame).unwrap(), (resp, frame.len()));
    }

    #[test]
    fn stats_payload_rejects_bad_utf8_and_oversized_lengths() {
        let frame = Response::Ok {
            day_served: 0,
            result: QueryResult::Stats("ok".to_string()),
        }
        .encode();
        // Flip a payload byte to an invalid UTF-8 lead byte.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() = 0xFF;
        assert!(matches!(
            Response::decode(&bad),
            Err(NetError::BadParams { query: "stats", .. })
        ));
        // A declared text length beyond MAX_STATS_BYTES is rejected
        // from the length prefix alone.
        let mut bad = frame;
        bad[RESPONSE_HEADER_BYTES..RESPONSE_HEADER_BYTES + 4]
            .copy_from_slice(&(MAX_STATS_BYTES + 1).to_le_bytes());
        assert!(matches!(
            Response::decode(&bad),
            Err(NetError::FrameTooLarge { max, .. }) if max == MAX_STATS_BYTES
        ));
    }
}
