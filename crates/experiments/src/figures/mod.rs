//! The per-artifact drivers. One module per paper table/figure.

pub mod ablations;
pub mod helpers;
pub mod live_event;
pub mod monitor;
pub mod resilience;

pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod summary;
pub(crate) mod sweep;
pub mod tab1;
