//! The design-choice taxonomy of Table 1.
//!
//! A typical RPC has three steps (Figure 2): the client sends the
//! request, someone processes it, and the result returns to the client.
//! With RDMA each step has a fixed menu of options; combining them
//! yields exactly the three useful paradigms (server-reply,
//! server-bypass, RFP) plus one meaningless corner.

use std::fmt;

/// Step 1 — request send. The server cannot know when a client will
/// invoke an RPC, so the only choice is the client issuing out-bound
/// RDMA (which the server's NIC serves in-bound).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RequestSend {
    /// Client out-bound RDMA → server in-bound RDMA.
    ClientOutbound,
}

/// Step 2 — request processing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProcessChoice {
    /// The server CPU handles the request: low porting cost, no
    /// application-specific concurrent data structures needed.
    ServerInvolved,
    /// The server is bypassed: zero server CPU, but clients must
    /// coordinate through specially designed data structures and may
    /// need extra RDMA rounds (bypass access amplification).
    ServerBypassed,
}

/// Step 3 — result return.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResultReturn {
    /// The server pushes the result: out-bound RDMA at the server.
    ServerPush,
    /// The client fetches the result: in-bound RDMA at the server.
    ClientFetch,
}

/// A complete paradigm: one choice per step.
///
/// # Examples
///
/// ```
/// use rfp_paradigms::Paradigm;
///
/// // RFP is the only row of Table 1 that keeps the server NIC
/// // in-bound-only *and* supports legacy RPC applications.
/// assert!(Paradigm::RFP.server_handles_only_inbound());
/// assert!(Paradigm::RFP.supports_legacy_rpc());
/// assert!(!Paradigm::SERVER_REPLY.server_handles_only_inbound());
/// assert!(!Paradigm::SERVER_BYPASS.supports_legacy_rpc());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Paradigm {
    /// Step 1 choice.
    pub send: RequestSend,
    /// Step 2 choice.
    pub process: ProcessChoice,
    /// Step 3 choice.
    pub ret: ResultReturn,
}

/// The named rows of Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Named {
    /// Server involved, server pushes results (classic RDMA port).
    ServerReply,
    /// Server bypassed, client fetches results (Pilaf/FaRM style).
    ServerBypass,
    /// Server involved, client fetches results (this paper).
    Rfp,
    /// Server bypassed yet pushing results: nobody to push — the server
    /// would have to notice results it never computed.
    Meaningless,
}

impl Paradigm {
    /// Server-reply: in-bound request, server processes, out-bound
    /// result.
    pub const SERVER_REPLY: Paradigm = Paradigm {
        send: RequestSend::ClientOutbound,
        process: ProcessChoice::ServerInvolved,
        ret: ResultReturn::ServerPush,
    };

    /// Server-bypass: in-bound request (or none), server bypassed,
    /// client fetches.
    pub const SERVER_BYPASS: Paradigm = Paradigm {
        send: RequestSend::ClientOutbound,
        process: ProcessChoice::ServerBypassed,
        ret: ResultReturn::ClientFetch,
    };

    /// RFP: in-bound request, server processes, client fetches —
    /// the server NIC handles **only in-bound** RDMA.
    pub const RFP: Paradigm = Paradigm {
        send: RequestSend::ClientOutbound,
        process: ProcessChoice::ServerInvolved,
        ret: ResultReturn::ClientFetch,
    };

    /// Classifies this combination as one of Table 1's rows.
    fn classify(self) -> Named {
        match (self.process, self.ret) {
            (ProcessChoice::ServerInvolved, ResultReturn::ServerPush) => Named::ServerReply,
            (ProcessChoice::ServerBypassed, ResultReturn::ClientFetch) => Named::ServerBypass,
            (ProcessChoice::ServerInvolved, ResultReturn::ClientFetch) => Named::Rfp,
            (ProcessChoice::ServerBypassed, ResultReturn::ServerPush) => Named::Meaningless,
        }
    }

    /// Whether the server's NIC only ever serves in-bound RDMA under
    /// this paradigm — the property RFP exploits against the in/out
    /// asymmetry.
    pub fn server_handles_only_inbound(self) -> bool {
        self.ret == ResultReturn::ClientFetch
    }

    /// Whether legacy RPC applications port without redesigning their
    /// data structures.
    pub fn supports_legacy_rpc(self) -> bool {
        self.process == ProcessChoice::ServerInvolved
    }

    /// All four combinations, in Table 1 row order.
    pub fn all() -> [Paradigm; 4] {
        [
            Paradigm::SERVER_REPLY,
            Paradigm::SERVER_BYPASS,
            Paradigm::RFP,
            Paradigm {
                send: RequestSend::ClientOutbound,
                process: ProcessChoice::ServerBypassed,
                ret: ResultReturn::ServerPush,
            },
        ]
    }
}

impl fmt::Display for Paradigm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.classify())
    }
}

#[cfg(test)]
mod taxonomy_tests {
    use super::*;

    #[test]
    fn table1_rows_classify_correctly() {
        assert_eq!(Paradigm::SERVER_REPLY.classify(), Named::ServerReply);
        assert_eq!(Paradigm::SERVER_BYPASS.classify(), Named::ServerBypass);
        assert_eq!(Paradigm::RFP.classify(), Named::Rfp);
        let meaningless = Paradigm {
            send: RequestSend::ClientOutbound,
            process: ProcessChoice::ServerBypassed,
            ret: ResultReturn::ServerPush,
        };
        assert_eq!(meaningless.classify(), Named::Meaningless);
    }

    #[test]
    fn rfp_is_the_unique_legacy_friendly_inbound_only_paradigm() {
        let winners: Vec<Paradigm> = Paradigm::all()
            .into_iter()
            .filter(|p| p.server_handles_only_inbound() && p.supports_legacy_rpc())
            .collect();
        assert_eq!(winners, vec![Paradigm::RFP]);
    }

    #[test]
    fn exactly_four_combinations_exist() {
        let all = Paradigm::all();
        assert_eq!(all.len(), 4);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
