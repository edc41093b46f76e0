//! Graph serialization: a human-readable edge-list text format and a compact
//! binary CSR snapshot.

mod binary;
mod edgelist;

pub use binary::{check_csr_binary, read_csr_binary, write_csr_binary};
pub use edgelist::{parse_edge_list, read_edge_list, write_edge_list, EdgeListError};
