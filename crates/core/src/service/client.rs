//! The `manimald` client: one Unix-socket connection speaking the
//! service frame protocol.
//!
//! The client is deliberately dumb — connect, write one request frame,
//! read one reply frame, surface the typed outcome. Retry/backoff
//! policy belongs to callers (the CLI and the bench harness make
//! different choices).

use std::os::unix::net::UnixStream;
use std::path::Path;

use mr_engine::backend::protocol::{read_frame, write_frame};

use super::proto::{
    decode_payload, invalidate_payload, JobReply, JobRequest, Rejection, TAG_ERROR, TAG_INVALIDATE,
    TAG_INVALIDATE_OK, TAG_REJECTED, TAG_RESULT, TAG_SHUTDOWN, TAG_SHUTDOWN_OK, TAG_STATS,
    TAG_STATS_OK, TAG_SUBMIT,
};
use super::StatsSnapshot;
use crate::error::{ManimalError, Result};

/// The outcome of one submission: either the job ran (possibly from
/// cache) or admission control turned it away.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The job completed; the reply carries the plan and full output.
    Completed(JobReply),
    /// The admission queue was full.
    Rejected(Rejection),
}

/// A connected `manimald` client.
pub struct ServiceClient {
    stream: UnixStream,
}

fn service_err(e: impl std::fmt::Display) -> ManimalError {
    ManimalError::Service(e.to_string())
}

impl ServiceClient {
    /// Connect to a daemon listening on `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> Result<ServiceClient> {
        let socket = socket.as_ref();
        let stream = UnixStream::connect(socket)
            .map_err(|e| ManimalError::Service(format!("connect {}: {e}", socket.display())))?;
        Ok(ServiceClient { stream })
    }

    /// One request/response turn on the stream.
    fn call(&mut self, tag: u8, payload: &[u8]) -> Result<(u8, Vec<u8>)> {
        write_frame(&mut self.stream, tag, payload).map_err(service_err)?;
        match read_frame(&mut self.stream).map_err(service_err)? {
            Some(frame) => Ok(frame),
            None => Err(ManimalError::Service(
                "daemon hung up before replying".into(),
            )),
        }
    }

    /// Submit a job and block until the daemon replies.
    pub fn submit(&mut self, req: &JobRequest) -> Result<SubmitOutcome> {
        let (tag, payload) = self.call(TAG_SUBMIT, &req.to_payload()?)?;
        match tag {
            TAG_RESULT => Ok(SubmitOutcome::Completed(JobReply::from_payload(&payload)?)),
            TAG_REJECTED => Ok(SubmitOutcome::Rejected(Rejection::from_payload(&payload)?)),
            TAG_ERROR => Err(ManimalError::Service(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(ManimalError::Service(format!(
                "unexpected reply tag {other} to a submission"
            ))),
        }
    }

    /// Fetch the daemon's counter snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let (tag, payload) = self.call(TAG_STATS, b"")?;
        if tag != TAG_STATS_OK {
            return Err(ManimalError::Service(format!(
                "unexpected reply tag {tag} to a stats request"
            )));
        }
        StatsSnapshot::from_payload(&payload)
    }

    /// Tell the daemon `input` was regenerated: its catalog entries and
    /// every cached result over it are dropped. Returns how many cache
    /// entries were invalidated.
    pub fn invalidate(&mut self, input: &Path) -> Result<u64> {
        let (tag, payload) = self.call(TAG_INVALIDATE, &invalidate_payload(input)?)?;
        if tag != TAG_INVALIDATE_OK {
            return Err(ManimalError::Service(format!(
                "unexpected reply tag {tag} to an invalidation"
            )));
        }
        decode_payload(&payload, "invalidate ack", |j| j.u64_field("dropped"))
    }

    /// Ask the daemon to finish in-flight jobs and exit. Returns once
    /// the daemon acknowledges it is draining.
    pub fn shutdown(&mut self) -> Result<()> {
        let (tag, _) = self.call(TAG_SHUTDOWN, b"")?;
        if tag != TAG_SHUTDOWN_OK {
            return Err(ManimalError::Service(format!(
                "unexpected reply tag {tag} to a shutdown request"
            )));
        }
        Ok(())
    }
}
