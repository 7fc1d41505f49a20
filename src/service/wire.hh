/**
 * @file
 * The wire protocol: a compact framed binary request/response format
 * that lets remote clients drive RimeService sessions over sockets.
 *
 * Every message rides the same [u32 len][u32 crc32][payload] frame
 * the journal uses (common/bitio.hh appendFrame/readFrame), so the
 * stream parser gets torn-tail and flipped-bit detection for free: a
 * Truncated frame means "wait for more bytes", a Corrupt frame is a
 * protocol error that closes the connection -- never undefined
 * behaviour.  Payloads are bit-packed with BitWriter/BitReader:
 *
 *   [u8 MessageKind][varint corrId][kind-specific body]
 *
 * Correlation IDs are chosen by the client, echoed verbatim by the
 * server, and let a client pipeline many requests on one connection
 * and match completions out of order (the server itself completes in
 * submission order per session, but admin ops may interleave).
 *
 * The connection handshake is Hello -> Welcome, both carrying a magic
 * word and protocol version so an incompatible peer (or a stray
 * process talking to the port) fails fast with WireError::BadMagic /
 * BadVersion instead of misparsing frames.
 *
 * The Request/Response codecs here are shared with the journal's Op
 * records (journal.cc), so the on-disk and on-wire encodings of a
 * request can never drift apart.
 */

#ifndef RIME_SERVICE_WIRE_HH
#define RIME_SERVICE_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitio.hh"
#include "service/request.hh"

namespace rime::service::wire
{

/** First field of every Hello/Welcome: "RIWE". */
constexpr std::uint32_t kWireMagic = 0x52495745u;
/** Bumped on any incompatible change to the message formats.
 *  v2: SessionOpened carries a resume token; DrainSession /
 *  InstallSession / ResumeSession added for the cluster tier. */
constexpr std::uint64_t kWireVersion = 2;

/** Discriminator of one wire frame's payload. */
enum class MessageKind : std::uint8_t
{
    Hello,         ///< client: magic + version (corrId 0)
    Welcome,       ///< server: magic + version + shard count
    OpenSession,   ///< client: tenant, weight, maxInFlight
    SessionOpened, ///< server: status + wire session handle
    CloseSession,  ///< client: close one wire session
    Request,       ///< client: one typed Request on a session
    Response,      ///< server: the matching Response
    Start,         ///< client: release deterministic schedulers
    StatDump,      ///< client: ask for the service stat tree
    StatDumpReply, ///< server: the JSON stat dump
    Error,         ///< server: protocol-level failure (then close);
                   ///< also the Shutdown notice (connection stays up)
    DrainSession,  ///< router: freeze + serialize one session; the
                   ///< Response carries its state image
    InstallSession,///< router: install a serialized session image on
                   ///< this instance (SessionOpened replies)
    ResumeSession, ///< client: reattach to a parked/journaled session
                   ///< by id + resume token (SessionOpened replies)
};

const char *messageKindName(MessageKind kind);

/** Protocol-level failure classes carried by MessageKind::Error. */
enum class WireError : std::uint8_t
{
    None,
    BadMagic,       ///< Hello/Welcome magic mismatch
    BadVersion,     ///< incompatible protocol version
    BadFrame,       ///< CRC mismatch or absurd frame length
    BadMessage,     ///< frame ok, payload undecodable
    UnknownSession, ///< message names a session this connection
                    ///< never opened (or already closed)
    Shutdown,       ///< server is going away; reconnect later
};

const char *wireErrorName(WireError error);

/** One decoded wire message (the union of all kinds). */
struct Message
{
    MessageKind kind = MessageKind::Error;
    /** Client-chosen, echoed by the server (0 = connection-level). */
    std::uint64_t corrId = 0;

    // Hello / Welcome
    std::uint32_t magic = kWireMagic;
    std::uint64_t version = kWireVersion;
    std::uint64_t shards = 0; ///< Welcome: service shard count

    // OpenSession
    std::string tenant;
    unsigned weight = 1;
    unsigned maxInFlight = 8;

    // SessionOpened / CloseSession / Request / DrainSession /
    // ResumeSession: the wire session handle (the service session id).
    std::uint64_t sessionId = 0;

    // SessionOpened: whether the open succeeded.
    ServiceStatus status = ServiceStatus::Ok;

    // SessionOpened / ResumeSession: the token that reattaches a
    // dropped connection to its journaled session (0 = unset).
    std::uint64_t resumeToken = 0;

    // InstallSession: the encoded SessionImage being handed off.
    std::vector<std::uint8_t> image;

    // Request / Response
    service::Request req;
    service::Response resp;

    // StatDump
    bool includeHost = false;

    // StatDumpReply (JSON) / Error (human-readable detail)
    std::string text;

    // Error
    WireError error = WireError::None;
};

/**
 * Append one complete frame carrying `msg` to `out` -- ready to hand
 * to sendFully().  Messages can be batched back-to-back in one
 * buffer (request pipelining is one write).
 */
void encodeMessage(std::vector<std::uint8_t> &out, const Message &msg);

/**
 * Decode one frame payload (as produced by readFrame).  False when
 * the payload is not a well-formed message; the caller should treat
 * that as WireError::BadMessage and drop the connection.
 */
bool decodeMessage(const std::vector<std::uint8_t> &payload,
                   Message &out);

/**
 * Request/Response body codecs, shared with the journal's Op records
 * so wire and disk encodings stay identical.
 */
void encodeRequest(BitWriter &w, const service::Request &req);
bool decodeRequest(BitReader &r, service::Request &req);
void encodeResponse(BitWriter &w, const service::Response &resp);
bool decodeResponse(BitReader &r, service::Response &resp);

/**
 * The resume token issued for a session: a pure deterministic
 * function of the session identity, so a server restarted on the same
 * journal (which recovers the same session ids and tenants) issues
 * the same token and pre-crash clients can still reattach.  This is a
 * possession check against stray connections, not authentication --
 * auth hooks are a separate protocol follow-on.
 */
std::uint64_t resumeToken(std::uint64_t session_id,
                          const std::string &tenant);

} // namespace rime::service::wire

#endif // RIME_SERVICE_WIRE_HH
