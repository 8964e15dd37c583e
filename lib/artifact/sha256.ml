include Ipds_core.Sha256
